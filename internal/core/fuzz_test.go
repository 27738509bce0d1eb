package core

import (
	"math"
	"testing"

	"msgroofline/internal/sim"
)

// clampTime folds an arbitrary int64 into [0, lim) picoseconds.
func clampTime(v int64, lim sim.Time) sim.Time {
	m := v % int64(lim)
	if m < 0 {
		m += int64(lim)
	}
	return sim.Time(m)
}

// foldBandwidth maps any positive finite float64 into the physical
// [1e6, 1e15] bytes/s band so picosecond serialization times cannot
// overflow int64 for the sweep shapes fuzzed below.
func foldBandwidth(bw float64) float64 {
	bw = math.Abs(bw)
	for bw < 1e6 {
		bw *= 1e9
	}
	for bw > 1e15 {
		bw /= 1e9
	}
	return bw
}

// FuzzParams drives the LogGP model with arbitrary parameter sets and
// sweep shapes. Raw inputs must be accepted or rejected by Validate
// exactly per its documented rules (in particular NaN/Inf bandwidth
// must be rejected, not waved through `<= 0`); normalized physical
// inputs must yield finite, non-negative times and bandwidths with the
// model's monotonicity and ceiling properties intact.
func FuzzParams(f *testing.F) {
	f.Add(int64(2500), int64(1200), int64(100), 1e9, uint64(4), uint64(16), uint64(4096))
	f.Add(int64(0), int64(0), int64(0), 1.0, uint64(1), uint64(1), uint64(0))
	f.Add(int64(-5), int64(7), int64(7), math.NaN(), uint64(3), uint64(2), uint64(64))
	f.Add(int64(1<<40), int64(1<<30), int64(1<<20), math.Inf(1), uint64(0), uint64(70000), uint64(1<<33))
	f.Add(int64(1), int64(1), int64(1), 5e-324, uint64(64), uint64(4095), uint64(1<<22-1))
	f.Fuzz(func(t *testing.T, l, o, gap int64, bw float64, ops, n, b uint64) {
		raw := Params{
			L:         sim.Time(l),
			O:         sim.Time(o),
			Gap:       sim.Time(gap),
			Bandwidth: bw,
			OpsPerMsg: int(ops % 128),
		}
		badBW := math.IsNaN(bw) || math.IsInf(bw, 0) || bw <= 0
		badRest := l < 0 || o < 0 || gap < 0 || raw.OpsPerMsg < 1
		if err := raw.Validate(); (err == nil) == (badBW || badRest) {
			t.Fatalf("Validate(%+v) = %v, want reject=%v", raw, err, badBW || badRest)
		}
		if badBW {
			// Non-physical bandwidth: G must degrade to 0, never NaN.
			if g := raw.G(); math.IsNaN(g) {
				t.Fatalf("G() = NaN for bandwidth %v", bw)
			}
			return
		}

		p := Params{
			L:         clampTime(l, sim.Millisecond),
			O:         clampTime(o, sim.Millisecond),
			Gap:       clampTime(gap, sim.Millisecond),
			Bandwidth: foldBandwidth(bw),
			OpsPerMsg: 1 + int(ops%64),
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("normalized params rejected: %v (%+v)", err, p)
		}
		nn := 1 + int(n%4096)
		bb := int64(b % (1 << 22))

		if g := p.G(); g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
			t.Fatalf("G() = %v, want positive finite", g)
		}
		st := p.SweepTime(nn, bb)
		if st < p.L || st < 0 {
			t.Fatalf("SweepTime(%d, %d) = %v below latency floor %v", nn, bb, st, p.L)
		}
		if grown := p.SweepTime(nn+1, bb); grown < st {
			t.Fatalf("SweepTime not monotone in n: t(%d)=%v > t(%d)=%v", nn, st, nn+1, grown)
		}
		if bb > 0 {
			if narrower := p.SweepTime(nn, bb-1); narrower > st {
				t.Fatalf("SweepTime not monotone in bytes: t(%d)=%v > t(%d)=%v", bb-1, narrower, bb, st)
			}
		}
		if ml := p.MsgLatency(nn, bb); ml < 0 || ml > st {
			t.Fatalf("MsgLatency(%d, %d) = %v outside [0, %v]", nn, bb, ml, st)
		}
		sb := p.SweepBandwidth(nn, bb)
		if sb < 0 || math.IsNaN(sb) || math.IsInf(sb, 0) {
			t.Fatalf("SweepBandwidth(%d, %d) = %v", nn, bb, sb)
		}
		if sb > p.Bandwidth*(1+1e-9) {
			t.Fatalf("SweepBandwidth %v exceeds wire bandwidth %v", sb, p.Bandwidth)
		}
		sharp, rounded := p.SharpBandwidth(bb), p.RoundedBandwidth(bb)
		for _, v := range []float64{sharp, rounded} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("roofline bound %v for b=%d, params %+v", v, bb, p)
			}
		}
		if rounded > sharp*(1+1e-9) {
			t.Fatalf("rounded bound %v above sharp bound %v", rounded, sharp)
		}
		// The model must explain its own samples exactly.
		samples := []Sample{
			{N: 1, Bytes: bb, Elapsed: p.SweepTime(1, bb)},
			{N: nn, Bytes: bb, Elapsed: st},
			{N: 2 * nn, Bytes: bb + 8, Elapsed: p.SweepTime(2*nn, bb+8)},
		}
		if fe := FitError(p, samples); fe != 0 {
			t.Fatalf("FitError against the model's own samples = %v, want 0", fe)
		}
	})
}
