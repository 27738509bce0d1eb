package main

import (
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"testing"
	"time"

	simruntime "msgroofline/internal/runtime"
)

// tinyPhold is a test-only workload small enough to run in-process.
func tinyPhold() *workload {
	return &workload{
		name: "phold-tiny",
		unit: phold(64, 4000),
		check: func(_ uint64, o outcome) error {
			if o.Events < 4000 {
				return fmt.Errorf("%d events, want at least 4000", o.Events)
			}
			return nil
		},
		speedup: true,
	}
}

func childRun(t *testing.T, w *workload, part string) (childLine, error) {
	t.Helper()
	var out bytes.Buffer
	err := runUnit(w, 7, part, &out)
	var line childLine
	if perr := lastJSONLine(out.Bytes(), &line); perr != nil {
		t.Fatalf("%s: child line: %v", part, perr)
	}
	return line, err
}

func TestChildRunsTinyPhold(t *testing.T) {
	w := tinyPhold()
	var ss []sample
	for _, part := range []string{partRun, partWorkers1, partTrace} {
		line, err := childRun(t, w, part)
		if err != nil || !line.OK {
			t.Fatalf("%s: %v (%s)", part, err, line.Error)
		}
		ss = append(ss, sample{childLine: line})
	}
	if ss[0].WallS <= 0 || ss[0].Digest == "" {
		t.Fatalf("run part reported %+v", ss[0].childLine)
	}
	agree(ss)
	for i, s := range ss {
		if s.Err != "" {
			t.Errorf("unit %d: %s", i, s.Err)
		}
	}
	m := ss[2].Metrics
	for _, name := range []string{"kernel.run_s", "kernel.build_s", "sim.exec_s", "sim.barrier_s", "sim.scan_s",
		"sim.barrier_share", "sim.windows", "sim.events", "sim.dispatches", "sim.ns_per_event", "sim.busy_wall",
		"go.alloc_mb", "go.allocs", "go.gc_cycles"} {
		if _, ok := m[name]; !ok {
			t.Errorf("traced unit did not measure %s", name)
		}
	}
	// The traced unit reports BENCHMARK.json's per-layer metrics in the
	// units listed there (trace.overhead is the parent's to compute).
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sp.PerLayer {
		if v, ok := m[l.Name]; l.Name != "trace.overhead" && (!ok || v.Unit != l.Unit) {
			t.Errorf("traced unit reports %s as %+v, BENCHMARK.json lists unit %s", l.Name, v, l.Unit)
		}
	}
	if got := m["sim.events"].Value; got != float64(ss[2].Events) {
		t.Errorf("sim.events = %v, unit reported %d events", got, ss[2].Events)
	}
	if len(ss[2].Spans) != 3 || ss[2].Spans[0].Name != "unit" {
		t.Errorf("spans = %+v, want the unit and its two phold calls", ss[2].Spans)
	}
}

func TestChildFailsOnPinMismatch(t *testing.T) {
	w := tinyPhold()
	w.check = pinned(outcome{Events: 1, Digest: "0000000000000000"})
	line, err := childRun(t, w, partRun)
	if err == nil || line.OK || !strings.Contains(line.Error, "want") {
		t.Fatalf("pin mismatch not reported: err %v, line %+v", err, line)
	}
}

func TestPholdCheck(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		o    outcome
		ok   bool
	}{
		{1, outcome{Events: 2050000, Digest: "bd261820cba6311a"}, true},
		{1, outcome{Events: 2050000, Digest: "0123456789abcdef"}, false},
		{7, outcome{Events: 2050000, Digest: "0123456789abcdef"}, true},
		{7, outcome{Events: 2049999, Digest: "0123456789abcdef"}, false},
	} {
		if err := pholdCheck(c.seed, c.o); (err == nil) != c.ok {
			t.Errorf("pholdCheck(%d, %v) = %v", c.seed, c.o, err)
		}
	}
}

func TestAgreeFailsDisagreeingUnits(t *testing.T) {
	ss := []sample{
		{Err: "killed"},
		{childLine: childLine{outcome: outcome{Events: 5, Digest: "a"}}},
		{childLine: childLine{outcome: outcome{Events: 5, Digest: "a"}}},
		{childLine: childLine{outcome: outcome{Events: 5, Digest: "b"}}},
	}
	agree(ss)
	if ss[1].Err != "" || ss[2].Err != "" || !strings.Contains(ss[3].Err, "differs from unit 2") {
		t.Fatalf("agree: %q %q %q", ss[1].Err, ss[2].Err, ss[3].Err)
	}
}

func TestSpawnFailures(t *testing.T) {
	if _, err := meminfoMB("MemAvailable"); err != nil {
		t.Skip("no /proc/meminfo:", err)
	}
	w := tinyPhold()
	h := &harness{exe: "/nonexistent", stderr: io.Discard}
	if s := h.spawn(w, 1, partRun, 1e12); !strings.Contains(s.Err, "memory guard") {
		t.Errorf("guard did not stop a unit needing 1 EB: %q", s.Err)
	}
	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false binary:", err)
	}
	h.exe = falseBin
	if s := h.spawn(w, 1, partRun, 0); !strings.Contains(s.Err, "exit status 1") {
		t.Errorf("non-zero exit not counted as failed: %q", s.Err)
	}
}

// A budgeted run whose units all fail at once still ends after w.reps
// units instead of failing units for the whole budget.
func TestBudgetedRunWithTrippedGuardIsBounded(t *testing.T) {
	if _, err := meminfoMB("MemAvailable"); err != nil {
		t.Skip("no /proc/meminfo:", err)
	}
	w := tinyPhold()
	w.reps, w.rssMB = 4, 1e12
	h := &harness{exe: "/nonexistent", stderr: io.Discard}
	ss := h.measure(w, 1, 2*time.Second)
	if len(ss) != w.reps {
		t.Fatalf("%d units, want %d", len(ss), w.reps)
	}
	for _, s := range ss {
		if !strings.Contains(s.Err, "memory guard") {
			t.Fatalf("unit not stopped by the guard: %q", s.Err)
		}
	}
}

// runtime.Usage carries no dispatch count, so world-based workloads
// must leave sim.dispatches out rather than report 0.
func TestUsageRecordsNoDispatches(t *testing.T) {
	tr := newTracer("test")
	a := simruntime.UsageSummary{Events: []int64{10}}
	b := simruntime.UsageSummary{Worlds: 1, Windows: 3, Events: []int64{25, 5}, ExecWall: time.Second, Busy: time.Second}
	tr.usage(a, b, 2)
	if _, ok := tr.metrics["sim.dispatches"]; ok {
		t.Fatal("sim.dispatches recorded from runtime.Usage")
	}
	if got := tr.metrics["sim.events"].Value; got != 20 {
		t.Fatalf("sim.events = %v, want 20", got)
	}
	if got := tr.metrics["sim.busy_wall"].Value; got != 0.5 {
		t.Fatalf("sim.busy_wall = %v, want 0.5", got)
	}
}
