package machine

import (
	"testing"
)

func TestCatalogComplete(t *testing.T) {
	want := []string{
		"dragonfly-10k", "dragonfly-1k", "fattree-1k",
		"frontier-cpu", "frontier-gpu", "perlmutter-cpu", "perlmutter-gpu", "summit-cpu", "summit-gpu",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("catalog = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("catalog = %v, want %v", got, want)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("All() should return %d configs (5 paper platforms + frontier-gpu + 3 generated)", len(want))
	}
	if NameList() == "" {
		t.Fatal("NameList() should render the catalog")
	}
}

func TestFrontierGPUExtension(t *testing.T) {
	c, err := Get(FrontierGPUName)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != GPU || c.MaxRanks != 4 {
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
	p, err := in.ModelParams(GPUShmem, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Projected ROC_SHMEM latency: a bit above NVSHMEM's 4-5 us.
	if l := p.SweepTime(1, 8); l < us(4.5) || l > us(6.5) {
		t.Errorf("frontier-gpu 1-msg = %v, want ~5.5us projection", l)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nersc-12"); err == nil {
		t.Fatal("expected error for unknown machine")
	}
	c, err := Get("perlmutter-cpu")
	if err != nil || c.Name != "perlmutter-cpu" {
		t.Fatalf("Get = %v, %v", c, err)
	}
}

func TestInstantiateBounds(t *testing.T) {
	c, _ := Get("perlmutter-cpu")
	if _, err := c.Instantiate(0); err == nil {
		t.Fatal("0 ranks should fail")
	}
	if _, err := c.Instantiate(129); err == nil {
		t.Fatal("129 ranks should exceed Perlmutter CPU capacity")
	}
	in, err := c.Instantiate(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Places) != 128 {
		t.Fatalf("places = %d", len(in.Places))
	}
}

func TestPerlmutterCPUPlacement(t *testing.T) {
	c, _ := Get("perlmutter-cpu")
	in, err := c.Instantiate(128)
	if err != nil {
		t.Fatal(err)
	}
	if in.Places[0].Socket != 0 || in.Places[127].Socket != 1 {
		t.Fatalf("block placement broken: %+v %+v", in.Places[0], in.Places[127])
	}
	if !in.SameNode(0, 1) {
		t.Fatal("ranks 0 and 1 should share socket 0")
	}
	if in.SameNode(0, 127) {
		t.Fatal("ranks 0 and 127 should be on different sockets")
	}
	if in.Places[0].Socket == in.Places[127].Socket {
		t.Fatal("ranks 0 and 127 should sit on different sockets")
	}
	// Cross-socket peak must be the IF 32 GB/s.
	bw := in.Net.PeakBandwidth("pm:s0", "pm:s1")
	if bw != 32e9 {
		t.Fatalf("IF bandwidth = %v, want 32e9", bw)
	}
}

func TestSummitGPUTopology(t *testing.T) {
	c, _ := Get("summit-gpu")
	in, err := c.Instantiate(6)
	if err != nil {
		t.Fatal(err)
	}
	// In-island: direct, 1 hop.
	if h := in.Net.Hops("sg:g0", "sg:g2"); h != 1 {
		t.Fatalf("in-island hops = %d, want 1", h)
	}
	// Cross-island: g -> s0 -> s1 -> g, 3 hops.
	if h := in.Net.Hops("sg:g0", "sg:g3"); h != 3 {
		t.Fatalf("cross-island hops = %d, want 3", h)
	}
	// Cross-island aggregate bottleneck is the X-Bus (32 GB/s, §II);
	// a single channel stream is limited by one NVLink2 brick.
	if bw := in.Net.AggregateBandwidth("sg:g0", "sg:g3"); bw != 32e9 {
		t.Fatalf("cross-island aggregate bw = %v, want 32e9", bw)
	}
	if bw := in.Net.PeakBandwidth("sg:g0", "sg:g3"); bw != 25e9 {
		t.Fatalf("cross-island single-channel bw = %v, want 25e9", bw)
	}
	if in.Places[2].Socket == in.Places[3].Socket {
		t.Fatal("GPUs 2 and 3 must be on different sockets")
	}
	if in.Places[0].Socket != in.Places[2].Socket {
		t.Fatal("GPUs 0 and 2 share an island")
	}
}

func TestPerlmutterGPUChannels(t *testing.T) {
	c, _ := Get("perlmutter-gpu")
	in, err := c.Instantiate(4)
	if err != nil {
		t.Fatal(err)
	}
	if ch := in.Net.Channels("pg:g0", "pg:g1"); ch != 4 {
		t.Fatalf("channels = %d, want 4", ch)
	}
	if bw := in.Net.PeakBandwidth("pg:g0", "pg:g1"); bw != 25e9 {
		t.Fatalf("single-channel bw = %v, want 25e9", bw)
	}
	if bw := in.Net.AggregateBandwidth("pg:g0", "pg:g1"); bw != 100e9 {
		t.Fatalf("aggregate bw = %v, want 100e9 (paper: 100 GB/s/dir/pair)", bw)
	}
	if c.GPU == nil {
		t.Fatal("Perlmutter GPU should carry a GPU device config")
	}
}

func TestTransportAvailability(t *testing.T) {
	cpu, _ := Get("perlmutter-cpu")
	if _, ok := cpu.Params(GPUShmem); ok {
		t.Fatal("CPU partition should not offer GPUShmem")
	}
	if _, ok := cpu.Params(TwoSided); !ok {
		t.Fatal("CPU partition must offer two-sided MPI")
	}
	gpu, _ := Get("perlmutter-gpu")
	if _, ok := gpu.Params(OneSided); ok {
		t.Fatal("GPU partition has no CPU one-sided MPI")
	}
	if _, ok := gpu.Params(GPUShmem); !ok {
		t.Fatal("GPU partition must offer GPUShmem")
	}
	// Host-initiated MPI exists on GPU machines, staged through the
	// host (the paper's introduction's "communicate via the host").
	host, ok := gpu.Params(TwoSided)
	if !ok || !host.HostStaged {
		t.Fatal("GPU partition must offer host-staged two-sided MPI")
	}
	in, _ := gpu.Instantiate(4)
	if in.Places[0].Host != "pg:host" {
		t.Fatalf("GPU rank host = %q", in.Places[0].Host)
	}
}

// Calibration checks: single-message latency and amortized per-message
// latency derived from the LogGP view must land near the paper's
// numbers (DESIGN.md §5).
func TestCalibrationPerlmutterCPU(t *testing.T) {
	c, _ := Get("perlmutter-cpu")
	in, _ := c.Instantiate(128)
	// Ranks 0 and 127 are cross-socket: representative IF traffic.
	two, err := in.ModelParams(TwoSided, 0, 127)
	if err != nil {
		t.Fatal(err)
	}
	one, err := in.ModelParams(OneSided, 0, 127)
	if err != nil {
		t.Fatal(err)
	}
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
	c, _ := Get("summit-cpu")
	in, _ := c.Instantiate(42)
	two, _ := in.ModelParams(TwoSided, 0, 41)
	one, _ := in.ModelParams(OneSided, 0, 41)
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
	pg, _ := Get("perlmutter-gpu")
	pin, _ := pg.Instantiate(4)
	p, _ := pin.ModelParams(GPUShmem, 0, 1)
	// §II: Perlmutter GPU latency from 4 us down to 0.5 us.
	if l := p.SweepTime(1, 8); l < us(3.5) || l > us(4.5) {
		t.Errorf("Perlmutter GPU 1-msg = %v, want ~4us", l)
	}
	if a := p.MsgLatency(100000, 8); a < us(0.3) || a > us(0.7) {
		t.Errorf("Perlmutter GPU amortized = %v, want ~0.5us", a)
	}
	sg, _ := Get("summit-gpu")
	sin, _ := sg.Instantiate(6)
	s, _ := sin.ModelParams(GPUShmem, 0, 1)
	if l := s.SweepTime(1, 8); l < us(4.5) || l > us(5.6) {
		t.Errorf("Summit GPU 1-msg = %v, want ~5us", l)
	}
}

func TestModelParamsSameNode(t *testing.T) {
	c, _ := Get("perlmutter-cpu")
	in, _ := c.Instantiate(4)
	// All 4 ranks: 2 on each socket; 0 and 1 share socket 0.
	p, err := in.ModelParams(TwoSided, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bandwidth != c.MemBandwidth {
		t.Fatalf("same-node bandwidth = %v, want mem bw %v", p.Bandwidth, c.MemBandwidth)
	}
	if p.L != crayTwoSided.SoftLatency+c.MemLatency {
		t.Fatalf("same-node latency = %v", p.L)
	}
}

func TestModelParamsUnsupportedTransport(t *testing.T) {
	c, _ := Get("perlmutter-gpu")
	in, _ := c.Instantiate(2)
	if _, err := in.ModelParams(OneSided, 0, 1); err == nil {
		t.Fatal("expected error for CPU one-sided MPI on GPU partition")
	}
}

func TestKindAndTransportStrings(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("Kind.String broken")
	}
	if TwoSided.String() != "two-sided" || OneSided.String() != "one-sided" || GPUShmem.String() != "gpu-shmem" {
		t.Fatal("Transport.String broken")
	}
}

func TestAllTransportParamsValid(t *testing.T) {
	for _, c := range All() {
		in, err := c.Instantiate(2)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for tr := range c.Transports {
			p, err := in.ModelParams(tr, 0, 1)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name, tr, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%s/%v: %v", c.Name, tr, err)
			}
		}
	}
}
