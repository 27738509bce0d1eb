package core

import (
	"math"
	"strings"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
	"msgroofline/internal/trace"
)

// fig1MsgsPerSync is the concurrency sweep of Fig 1: 1 to 1e6 by
// powers of ten.
var fig1MsgsPerSync = []int{1, 10, 100, 1000, 10000, 100000, 1000000}

func pmTwoSided(t *testing.T) *Model {
	t.Helper()
	cfg, _ := machine.Get("perlmutter-cpu")
	m, err := ForMachine(cfg, machine.TwoSided, 128, 0, 127)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForMachine(t *testing.T) {
	m := pmTwoSided(t)
	if m.TheoreticalGBs != 32 {
		t.Fatalf("theoretical = %v", m.TheoreticalGBs)
	}
	if m.Channels != 4 {
		t.Fatalf("channels = %d, want 4 (IF)", m.Channels)
	}
	if m.Params.OpsPerMsg != 2 {
		t.Fatalf("ops/msg = %d", m.Params.OpsPerMsg)
	}
}

func TestSharpAboveRoundedAboveNothing(t *testing.T) {
	m := pmTwoSided(t)
	for _, b := range DefaultSizes() {
		sharp, rounded := m.SharpGBs(b), m.RoundedGBs(b)
		if rounded > sharp {
			t.Fatalf("B=%d rounded %v > sharp %v", b, rounded, sharp)
		}
		if sharp > m.TheoreticalGBs*1.001 {
			t.Fatalf("B=%d sharp %v exceeds theoretical ceiling", b, sharp)
		}
	}
}

func TestCeilingFamilyMonotoneInN(t *testing.T) {
	m := pmTwoSided(t)
	for _, b := range []int64{8, 4096, 1 << 20} {
		prev := 0.0
		for _, n := range fig1MsgsPerSync {
			cur := m.CeilingGBs(n, b)
			if cur < prev {
				t.Fatalf("B=%d: ceiling not monotone in n: %v after %v", b, cur, prev)
			}
			prev = cur
		}
	}
}

func TestOverlapGainFig1(t *testing.T) {
	// Fig 1: ~10x improvement from 100+ msgs/sync when L >> G (small
	// messages).
	m := pmTwoSided(t)
	gain := m.OverlapGain(8, 100)
	if gain < 5 || gain > 20 {
		t.Fatalf("overlap gain at 8B/100 msgs = %.1f, want order 10x", gain)
	}
	// When G dominates (huge messages), overlap gains little.
	big := m.OverlapGain(4<<20, 100)
	if big > 1.5 {
		t.Fatalf("overlap gain at 4MiB = %.2f, want ~1 (bandwidth bound)", big)
	}
}

func TestFloodBoundLooserThanTightBound(t *testing.T) {
	// The paper's core claim: the msg/sync ceiling is tighter than
	// the flood bound for latency-bound workloads.
	m := pmTwoSided(t)
	b := int64(400) // SpTRSV-like message
	tight := m.CeilingGBs(1, b)
	flood := m.FloodGBs(b)
	if tight >= flood {
		t.Fatalf("tight bound %v should be below flood bound %v", tight, flood)
	}
	if flood/tight < 5 {
		t.Fatalf("flood/tight = %.1f: bound not meaningfully tighter", flood/tight)
	}
}

func TestPlaceWorkload(t *testing.T) {
	m := pmTwoSided(t)
	s := trace.Summary{
		Messages:     4000,
		Syncs:        1000,
		MeanBytes:    65536,
		MsgsPerSync:  4,
		SustainedGBs: 10,
	}
	d := m.Place("stencil", s)
	if d.Bytes != 65536 || d.GBs != 10 {
		t.Fatalf("dot = %+v", d)
	}
	if d.BoundGBs <= 0 || d.BoundGBs > m.TheoreticalGBs {
		t.Fatalf("bound = %v", d.BoundGBs)
	}
	if d.FloodBoundGBs < d.BoundGBs {
		t.Fatal("flood bound must be >= tight bound")
	}
	if eff := d.Efficiency(); eff <= 0 || eff > 1.5 {
		t.Fatalf("efficiency = %v", eff)
	}
}

func TestPlaceDegenerateSummary(t *testing.T) {
	m := pmTwoSided(t)
	d := m.Place("empty", trace.Summary{})
	if math.IsNaN(d.BoundGBs) || d.BoundGBs <= 0 {
		t.Fatalf("degenerate placement bound = %v", d.BoundGBs)
	}
	if (Dot{}).Efficiency() != 0 {
		t.Fatal("zero dot efficiency should be 0")
	}
}

func TestFitModel(t *testing.T) {
	truth := pmTwoSided(t).Params
	var samples []Sample
	for _, n := range []int{1, 4, 16, 64, 256} {
		for _, b := range []int64{8, 256, 8192, 262144} {
			samples = append(samples, Sample{N: n, Bytes: b, Elapsed: truth.SweepTime(n, b)})
		}
	}
	m, err := Fit("fitted", samples, truth.OpsPerMsg, truth.Gap, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.Params.Bandwidth-truth.Bandwidth) / truth.Bandwidth; rel > 0.2 {
		t.Fatalf("fitted bandwidth off by %.0f%%", rel*100)
	}
	if _, err := Fit("bad", nil, 2, 0, 32); err == nil {
		t.Fatal("expected fit error for no samples")
	}
}

func TestSplitSpeedupFig10(t *testing.T) {
	cfg, _ := machine.Get("perlmutter-gpu")
	m, err := ForMachine(cfg, machine.GPUShmem, 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Channels != 4 {
		t.Fatalf("channels = %d", m.Channels)
	}
	// Paper: >= 131 KB gains up to ~2.9x from 4-way splitting.
	sp := m.SplitSpeedup(1<<20, 4)
	if sp < 2.3 || sp > 4.0 {
		t.Fatalf("1 MiB 4-way speedup = %.2f, want ~2.9x", sp)
	}
	// Small messages gain nothing (latency dominated).
	small := m.SplitSpeedup(256, 4)
	if small > 1.1 {
		t.Fatalf("256 B split speedup = %.2f, want ~<=1", small)
	}
	// Crossover should be in the tens-of-KB range.
	cross := int64(0)
	for v := int64(1024); v <= 8<<20; v *= 2 {
		if m.SplitSpeedup(v, 4) > 1.5 {
			cross = v
			break
		}
	}
	if cross == 0 || cross > 1<<20 {
		t.Fatalf("splitting crossover at %d bytes, want below 1 MiB", cross)
	}
}

func TestSplitTimeWaves(t *testing.T) {
	p := Params{
		L: sim.FromMicroseconds(1), O: 0, Gap: 0,
		Bandwidth: 1e9, OpsPerMsg: 1,
	}
	// 8 parts over 4 channels: two serialization waves.
	v := int64(8 << 10)
	two := SplitTime(p, v, 8, 4)
	one := SplitTime(p, v, 4, 4)
	if two <= one {
		t.Fatalf("8 parts on 4 channels (%v) should exceed 4 parts (%v)", two, one)
	}
}

func TestSplitTimeChargesTrigger(t *testing.T) {
	// One channel and b bytes per part is a sweep window of n messages:
	// the trigger latency of an offloaded transport is paid once in
	// both.
	p := pairParams(t, "perlmutter-gpu", machine.StreamTriggered, 4, 0, 1)
	if p.Trigger <= 0 {
		t.Fatalf("stream-triggered trigger = %v, want > 0", p.Trigger)
	}
	for _, n := range []int{1, 4, 64} {
		for _, b := range []int64{8, 4096, 1 << 20} {
			if got, want := SplitTime(p, int64(n)*b, n, 1), p.SweepTime(n, b); got != want {
				t.Errorf("n=%d b=%d: SplitTime = %v, SweepTime = %v", n, b, got, want)
			}
		}
	}
}

func TestChartRenders(t *testing.T) {
	m := pmTwoSided(t)
	dots := []Dot{m.Place("hashtable", trace.Summary{MeanBytes: 8, MsgsPerSync: 1e6, SustainedGBs: 0.01})}
	c := m.Chart(fig1MsgsPerSync, DefaultSizes(), dots)
	out := c.Render()
	for _, want := range []string{"Message Roofline", "theoretical 32 GB/s", "1 msg/sync", "hashtable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesShapes(t *testing.T) {
	m := pmTwoSided(t)
	sizes := DefaultSizes()
	for _, s := range []struct {
		name string
		n    int
	}{{"sharp", 0}, {"rounded", 0}} {
		_ = s
	}
	sharp := m.SharpSeries(sizes)
	rounded := m.RoundedSeries(sizes)
	ceil := m.CeilingSeries(100, sizes)
	split := m.SplitSeries(4, sizes)
	for _, s := range [][]float64{sharp.Y, rounded.Y, ceil.Y, split.Y} {
		if len(s) != len(sizes) {
			t.Fatal("series length mismatch")
		}
	}
}
