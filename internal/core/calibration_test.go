package core

import (
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

func us(v float64) sim.Time { return sim.FromMicroseconds(v) }

// pairParams is the analytic parameter set ForMachine derives for
// traffic from src to dst on an instance of `ranks` ranks.
func pairParams(t *testing.T, name string, tr machine.Transport, ranks, src, dst int) Params {
	t.Helper()
	cfg, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ForMachine(cfg, tr, ranks, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return m.Params
}

func TestFrontierGPUExtension(t *testing.T) {
	c, err := machine.Get(machine.FrontierGPUName)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != machine.GPU || c.MaxRanks != 4 {
		t.Fatalf("frontier-gpu config: %+v", c)
	}
	in, err := c.Instantiate(4)
	if err != nil {
		t.Fatal(err)
	}
	// Fully connected MI250X pairs at 50 GB/s aggregate.
	if bw := in.Net.AggregateBandwidth("fg:g0", "fg:g3"); bw != 50e9 {
		t.Fatalf("pair aggregate = %v, want 50e9", bw)
	}
	p := pairParams(t, machine.FrontierGPUName, machine.GPUShmem, 4, 0, 1)
	// Projected ROC_SHMEM latency: a bit above NVSHMEM's 4-5 us.
	if l := p.SweepTime(1, 8); l < us(4.5) || l > us(6.5) {
		t.Errorf("frontier-gpu 1-msg = %v, want ~5.5us projection", l)
	}
}

// Calibration checks: single-message latency and amortized per-message
// latency derived from the LogGP view must land near the paper's
// numbers (DESIGN.md §5).
func TestCalibrationPerlmutterCPU(t *testing.T) {
	// Ranks 0 and 127 are cross-socket: representative IF traffic.
	two := pairParams(t, "perlmutter-cpu", machine.TwoSided, 128, 0, 127)
	one := pairParams(t, "perlmutter-cpu", machine.OneSided, 128, 0, 127)
	// Fig 6b: two-sided ~3.3 us, one-sided ~5 us for one small message.
	t2 := two.SweepTime(1, 100)
	t1 := one.SweepTime(1, 100)
	if t2 < us(2.8) || t2 > us(3.8) {
		t.Errorf("two-sided 1-msg = %v, want ~3.3us", t2)
	}
	if t1 < us(4.4) || t1 > us(5.6) {
		t.Errorf("one-sided 1-msg = %v, want ~5us", t1)
	}
	// Fig 3a: amortized two-sided ~0.3 us; one-sided ~20%% lower.
	a2 := two.MsgLatency(1000, 8)
	a1 := one.MsgLatency(1000, 8)
	if a2 < us(0.25) || a2 > us(0.45) {
		t.Errorf("two-sided amortized = %v, want ~0.3-0.4us", a2)
	}
	if a1 >= a2 {
		t.Errorf("one-sided amortized %v should beat two-sided %v at high msg/sync", a1, a2)
	}
}

func TestCalibrationSummitSpectrum(t *testing.T) {
	two := pairParams(t, "summit-cpu", machine.TwoSided, 42, 0, 41)
	one := pairParams(t, "summit-cpu", machine.OneSided, 42, 0, 41)
	// Spectrum one-sided must be consistently worse (Fig 3c).
	for _, n := range []int{1, 10, 100, 1000} {
		for _, b := range []int64{8, 512, 65536} {
			if one.SweepBandwidth(n, b) > two.SweepBandwidth(n, b) {
				t.Fatalf("n=%d B=%d: Spectrum one-sided beats two-sided", n, b)
			}
		}
	}
	// Summit CPU two-sided latency ~3 us (§III-B).
	if l := two.SweepTime(1, 100); l < us(2.5) || l > us(3.5) {
		t.Errorf("Summit two-sided 1-msg = %v, want ~3us", l)
	}
}

func TestCalibrationGPULatency(t *testing.T) {
	p := pairParams(t, "perlmutter-gpu", machine.GPUShmem, 4, 0, 1)
	// §II: Perlmutter GPU latency from 4 us down to 0.5 us.
	if l := p.SweepTime(1, 8); l < us(3.5) || l > us(4.5) {
		t.Errorf("Perlmutter GPU 1-msg = %v, want ~4us", l)
	}
	if a := p.MsgLatency(100000, 8); a < us(0.3) || a > us(0.7) {
		t.Errorf("Perlmutter GPU amortized = %v, want ~0.5us", a)
	}
	s := pairParams(t, "summit-gpu", machine.GPUShmem, 6, 0, 1)
	if l := s.SweepTime(1, 8); l < us(4.5) || l > us(5.6) {
		t.Errorf("Summit GPU 1-msg = %v, want ~5us", l)
	}
}

func TestForMachineSameNode(t *testing.T) {
	c, _ := machine.Get("perlmutter-cpu")
	// All 4 ranks: 2 on each socket; 0 and 1 share socket 0.
	p := pairParams(t, c.Name, machine.TwoSided, 4, 0, 1)
	if p.Bandwidth != c.MemBandwidth {
		t.Fatalf("same-node bandwidth = %v, want mem bw %v", p.Bandwidth, c.MemBandwidth)
	}
	if p.L != c.Transports[machine.TwoSided].SoftLatency+c.MemLatency {
		t.Fatalf("same-node latency = %v", p.L)
	}
}

func TestForMachineUnsupportedTransport(t *testing.T) {
	c, _ := machine.Get("perlmutter-gpu")
	if _, err := ForMachine(c, machine.OneSided, 2, 0, 1); err == nil {
		t.Fatal("expected error for CPU one-sided MPI on GPU partition")
	}
}

func TestAllTransportParamsValid(t *testing.T) {
	for _, c := range machine.All() {
		for tr := range c.Transports {
			if err := pairParams(t, c.Name, tr, 2, 0, 1).Validate(); err != nil {
				t.Fatalf("%s/%v: %v", c.Name, tr, err)
			}
		}
	}
}
