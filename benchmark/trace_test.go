package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeMedianIQR(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3}, "s")
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.IQR != 2 || s.N != 5 || s.Unit != "s" {
		t.Fatalf("odd count: %+v", s)
	}
	s = summarize([]float64{1, 2, 3, 10}, "s")
	if !near(s.Median, 2.5) || !near(s.Q1, 1.75) || !near(s.Q3, 4.75) || !near(s.IQR, 3) {
		t.Fatalf("even count: %+v", s)
	}
	if s = summarize([]float64{7}, "s"); s.Median != 7 || s.IQR != 0 {
		t.Fatalf("one sample: %+v", s)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 4},
		{Name: "b", Parent: 0, Start: 3, End: 6},  // overlaps a: the union counts once
		{Name: "a1", Parent: 1, Start: 2, End: 3}, // a grandchild of root
		{Name: "c", Parent: 0, Start: 9, End: 12}, // runs past its parent: clipped
	}
	got := selfTimes(spans)
	want := []float64{10 - 5 - 1, 3 - 1, 3, 1, 3}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTailSpanGivesSelfTimeOfItsParent(t *testing.T) {
	tr := newTracer("test")
	if err := tr.span("call", func() error { time.Sleep(20 * time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	tr.tail("pool", 15*time.Millisecond)
	if got, want := tr.self("call"), tr.dur("call")-0.015; !near(got, want) {
		t.Fatalf("self = %v, want %v", got, want)
	}
	if p := tr.spans[tr.find("pool")]; p.Parent != tr.find("call") || !near(p.End, tr.spans[0].End) {
		t.Fatalf("tail span %+v is not the tail of its caller", p)
	}
}

func TestNilTracerRunsTheCallOnly(t *testing.T) {
	var tr *tracer
	ran := false
	if err := tr.span("x", func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatal("nil tracer did not run the call")
	}
	tr.tail("y", time.Second)
	tr.set("z", 1, "s")
}

func TestSetLeavesOutValuesThatWereNotMeasured(t *testing.T) {
	tr := newTracer("test")
	tr.set("ratio", math.NaN(), "x")
	tr.set("inf", math.Inf(1), "x")
	tr.set("zero", 0, "count")
	if _, ok := tr.metrics["ratio"]; ok {
		t.Error("NaN recorded")
	}
	if _, ok := tr.metrics["inf"]; ok {
		t.Error("Inf recorded")
	}
	if _, ok := tr.metrics["zero"]; !ok {
		t.Error("a measured zero was dropped")
	}
}

func TestLayersSumToRun(t *testing.T) {
	m := metrics{
		"kernel.run_s":   {8.5, "s"},
		"kernel.build_s": {1.9, "s"},
		"sim.exec_s":     {3.3, "s"},
		"sim.barrier_s":  {2.8, "s"},
		"sim.scan_s":     {0.05, "s"},
		"netsim.route_s": {1.5, "s"}, // inside exec/barrier: not additive
	}
	attribute(m)
	sum := 0.0
	for _, name := range additive {
		v, ok := m[name]
		if !ok {
			t.Fatalf("%s missing", name)
		}
		sum += v.Value
	}
	if !near(sum, m["kernel.run_s"].Value) {
		t.Fatalf("layers sum to %v, kernel.run_s is %v", sum, m["kernel.run_s"].Value)
	}
	if !near(m["kernel.unattributed_s"].Value, 0.45) {
		t.Fatalf("unattributed = %v", m["kernel.unattributed_s"].Value)
	}

	noBuild := metrics{"kernel.run_s": {1, "s"}, "sim.exec_s": {0.5, "s"}}
	attribute(noBuild)
	if _, ok := noBuild["kernel.unattributed_s"]; ok {
		t.Fatal("unattributed derived for a workload without a build layer")
	}
}
