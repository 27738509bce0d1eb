package core

import (
	"math"
	"testing"
	"testing/quick"

	"msgroofline/internal/sim"
)

// perlmutterish is a plausible Cray-MPI-two-sided parameter set:
// L = 4.5 us, o = 150 ns/op, 2 ops per message, 32 GB/s.
var perlmutterish = Params{
	L:         sim.FromMicroseconds(4.5),
	O:         150 * sim.Nanosecond,
	Gap:       50 * sim.Nanosecond,
	Bandwidth: 32e9,
	OpsPerMsg: 2,
}

func TestValidate(t *testing.T) {
	if err := perlmutterish.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := perlmutterish
	bad.Bandwidth = 0
	if bad.Validate() == nil {
		t.Fatal("zero bandwidth should not validate")
	}
	bad = perlmutterish
	bad.OpsPerMsg = 0
	if bad.Validate() == nil {
		t.Fatal("zero ops/msg should not validate")
	}
	bad = perlmutterish
	bad.L = -1
	if bad.Validate() == nil {
		t.Fatal("negative latency should not validate")
	}
}

func TestSweepTimeSingleMessage(t *testing.T) {
	// One 8-byte message: 2 ops * o + L + ser.
	got := perlmutterish.SweepTime(1, 8)
	ser := perlmutterish.SerTime(8)
	if ser > perlmutterish.Gap {
		t.Fatalf("8 bytes at 32 GB/s should be under the 50ns gap")
	}
	want := 2*150*sim.Nanosecond + sim.FromMicroseconds(4.5) + perlmutterish.Gap
	if got != want {
		t.Fatalf("SweepTime = %v, want %v", got, want)
	}
}

func TestLatencyAmortization(t *testing.T) {
	// The whole point of msg/sync: per-message latency falls toward
	// k*o + max(g, BG) as n grows.
	l1 := perlmutterish.MsgLatency(1, 8)
	l1k := perlmutterish.MsgLatency(1000, 8)
	if l1k >= l1 {
		t.Fatalf("amortized latency %v not below single-message %v", l1k, l1)
	}
	floor := 2*perlmutterish.O + perlmutterish.Gap
	if l1k < floor {
		t.Fatalf("amortized latency %v below o+gap floor %v", l1k, floor)
	}
	// Paper: Perlmutter CPU two-sided goes 5us -> 0.3us.
	if l1 < sim.FromMicroseconds(4) || l1 > sim.FromMicroseconds(6) {
		t.Fatalf("single-message latency %v outside paper-like 4-6us", l1)
	}
	if l1k > sim.FromMicroseconds(0.5) {
		t.Fatalf("amortized latency %v should approach sub-0.5us", l1k)
	}
}

func TestBandwidthCeiling(t *testing.T) {
	// Large messages, many per sync: bandwidth approaches peak.
	bw := perlmutterish.SweepBandwidth(100, 4<<20)
	if bw < 0.9*perlmutterish.Bandwidth || bw > perlmutterish.Bandwidth {
		t.Fatalf("large-message bandwidth %v not near peak %v", bw, perlmutterish.Bandwidth)
	}
	// Tiny messages one-per-sync: latency dominates.
	low := perlmutterish.SweepBandwidth(1, 8)
	if low > 0.01*perlmutterish.Bandwidth {
		t.Fatalf("tiny-message bandwidth %v should be latency-crushed", low)
	}
}

func TestSharpVsRounded(t *testing.T) {
	for _, b := range []int64{8, 256, 4096, 65536, 1 << 20} {
		sharp := perlmutterish.SharpBandwidth(b)
		rounded := perlmutterish.RoundedBandwidth(b)
		if rounded > sharp {
			t.Fatalf("B=%d: rounded %v exceeds sharp %v", b, rounded, sharp)
		}
		if sharp > perlmutterish.Bandwidth {
			t.Fatalf("B=%d: sharp %v exceeds peak", b, sharp)
		}
	}
}

func TestSharpBandwidthShape(t *testing.T) {
	// In the latency region the sharp bound is B/L (diagonal); in the
	// bandwidth region it saturates at peak.
	small := perlmutterish.SharpBandwidth(64)
	wantSmall := 64 / perlmutterish.L.Seconds()
	if math.Abs(small-wantSmall)/wantSmall > 1e-9 {
		t.Fatalf("sharp(64B) = %v, want B/L = %v", small, wantSmall)
	}
	big := perlmutterish.SharpBandwidth(64 << 20)
	if math.Abs(big-perlmutterish.Bandwidth)/perlmutterish.Bandwidth > 0.01 {
		t.Fatalf("sharp(64MB) = %v, want ~peak %v", big, perlmutterish.Bandwidth)
	}
}

func TestFitRecoversParameters(t *testing.T) {
	truth := perlmutterish
	var samples []Sample
	for _, n := range []int{1, 2, 4, 16, 64, 256, 1024} {
		for _, b := range []int64{8, 64, 512, 4096, 32768, 262144} {
			samples = append(samples, Sample{N: n, Bytes: b, Elapsed: truth.SweepTime(n, b)})
		}
	}
	m, err := Fit("truth", samples, truth.OpsPerMsg, truth.Gap, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Params
	relOK := func(a, b float64, tol float64) bool {
		if b == 0 {
			return a == 0
		}
		return math.Abs(a-b)/b <= tol
	}
	// The gap folds into the serialization max() for small B so the
	// recovered parameters carry some bias; 15% is fine for a model fit.
	if !relOK(float64(got.L), float64(truth.L), 0.15) {
		t.Errorf("L = %v, want ~%v", got.L, truth.L)
	}
	if !relOK(float64(got.O), float64(truth.O), 0.35) {
		t.Errorf("o = %v, want ~%v", got.O, truth.O)
	}
	if !relOK(got.Bandwidth, truth.Bandwidth, 0.15) {
		t.Errorf("bw = %v, want ~%v", got.Bandwidth, truth.Bandwidth)
	}
	if fe := FitError(got, samples); fe > 0.25 {
		t.Errorf("fit RMS relative error %v too large", fe)
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit("none", nil, 2, 0, 0); err == nil {
		t.Fatal("expected error for no samples")
	}
	s := []Sample{{1, 8, 1}, {2, 8, 2}, {4, 8, 4}}
	if _, err := Fit("no ops", s, 0, 0, 0); err == nil {
		t.Fatal("expected error for zero opsPerMsg")
	}
}

func TestMoreOpsPerMsgCostsMore(t *testing.T) {
	two := perlmutterish
	four := perlmutterish
	four.OpsPerMsg = 4
	if four.SweepTime(10, 100) <= two.SweepTime(10, 100) {
		t.Fatal("4 ops/msg should cost more than 2 ops/msg")
	}
}

func TestSweepMonotoneProperties(t *testing.T) {
	f := func(nRaw uint8, bRaw uint16) bool {
		n := int(nRaw%100) + 1
		b := int64(bRaw) + 1
		p := perlmutterish
		// More messages never completes sooner.
		if p.SweepTime(n+1, b) < p.SweepTime(n, b) {
			return false
		}
		// Bigger messages never complete sooner.
		if p.SweepTime(n, b+512) < p.SweepTime(n, b) {
			return false
		}
		// Bandwidth never exceeds peak.
		return p.SweepBandwidth(n, b) <= p.Bandwidth*1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	if perlmutterish.SweepTime(0, 100) != 0 {
		t.Fatal("n=0 should cost nothing")
	}
	if perlmutterish.MsgLatency(0, 100) != 0 {
		t.Fatal("n=0 latency should be 0")
	}
	if perlmutterish.SweepBandwidth(0, 100) != 0 {
		t.Fatal("n=0 bandwidth should be 0")
	}
}

func TestGAndString(t *testing.T) {
	if g := perlmutterish.G(); g <= 0 {
		t.Fatalf("G = %v", g)
	}
	// G is picoseconds per byte: 32 GB/s -> 1e12/32e9 = 31.25 ps/B.
	if g := perlmutterish.G(); g < 31 || g > 32 {
		t.Fatalf("G = %v ps/B, want ~31.25", g)
	}
	zero := perlmutterish
	zero.Bandwidth = 0
	if zero.G() != 0 {
		t.Fatal("zero bandwidth should give G=0")
	}
	s := perlmutterish.String()
	if s == "" || s[0] != 'L' {
		t.Fatalf("String = %q", s)
	}
}

func TestFitErrorEdgeCases(t *testing.T) {
	if fe := FitError(perlmutterish, nil); fe != 0 {
		t.Fatalf("empty FitError = %v", fe)
	}
	// Zero-elapsed samples are skipped, not divided by.
	fe := FitError(perlmutterish, []Sample{{N: 1, Bytes: 8, Elapsed: 0}})
	if fe != 0 {
		t.Fatalf("zero-elapsed FitError = %v", fe)
	}
}

func TestBoundsDegenerateParams(t *testing.T) {
	p := Params{Bandwidth: 1e9, OpsPerMsg: 1} // all times zero
	if p.SharpBandwidth(0) != 0 {
		t.Fatal("zero-byte sharp bound should be 0")
	}
	if p.RoundedBandwidth(0) != 0 {
		t.Fatal("zero-byte rounded bound should be 0")
	}
}
