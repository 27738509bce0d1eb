package main

import (
	"os"
	"regexp"
	"slices"
	"testing"
)

// shouldMove is, for every per-layer metric BENCHMARK.json lists, the
// end-to-end metric it should move ("none" for the tracing overhead)
// and the workloads it should move it on.
var shouldMove = map[string]struct {
	moves string
	on    []string
}{
	"kernel.run_s":      {"wall_s", []string{"quick-suite", "stencil-df10k", "phold-100k", "hashtable-df1k"}},
	"sim.exec_s":        {"cpu_s", []string{"quick-suite"}},
	"sim.barrier_s":     {"wall_s", []string{"phold-100k", "hashtable-df1k"}},
	"sim.scan_s":        {"wall_s", []string{"phold-100k"}},
	"sim.barrier_share": {"wall_s", []string{"phold-100k", "hashtable-df1k"}},
	"sim.windows":       {"wall_s", []string{"phold-100k"}},
	"sim.events":        {"wall_s", []string{"quick-suite", "stencil-df10k", "phold-100k", "hashtable-df1k"}},
	"sim.ns_per_event":  {"wall_s", []string{"quick-suite", "stencil-df10k", "phold-100k", "hashtable-df1k"}},
	"sim.busy_wall":     {"wall_s", []string{"stencil-df10k", "phold-100k"}},
	"go.alloc_mb":       {"peak_rss_mb", []string{"quick-suite", "stencil-df10k"}},
	"go.allocs":         {"cpu_s", []string{"quick-suite", "stencil-df10k"}},
	"go.gc_cycles":      {"cpu_s", []string{"quick-suite", "stencil-df10k"}},
	"trace.overhead":    {"none", []string{"quick-suite", "stencil-df10k", "phold-100k", "hashtable-df1k"}},
}

// TestBenchmarkJSON lints BENCHMARK.json and checks it describes what
// this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat("../BENCHMARK.json"); err != nil || info.Size() > 64<<10 {
		t.Fatalf("BENCHMARK.json missing or over 64 KiB: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	var names []string
	for _, w := range sp.Workloads {
		checkName("workload", w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1-200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json lists workloads %q, the program runs %q", names, workloadNames())
	}

	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	e2e := map[string]bool{}
	largest, setup := 0.0, -1.0
	for _, m := range sp.EndToEnd {
		checkName("end-to-end", m.Name)
		e2e[m.Name] = true
		i := slices.IndexFunc(endToEnd, func(e endToEndMetric) bool { return e.name == m.Name })
		if i < 0 || endToEnd[i].unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not one the program measures in that unit", m.Name, m.Unit)
		}
		if !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		largest = max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setup = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setup < 0 || setup != largest {
		t.Errorf("setup_s must be present with the largest bound (%v), has %v", largest, setup)
	}

	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if len(sp.PerLayer) != len(shouldMove) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, shouldMove maps %d", len(sp.PerLayer), len(shouldMove))
	}
	for _, m := range sp.PerLayer {
		checkName("per-layer", m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
		if !unitRE.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		l, ok := shouldMove[m.Name]
		if !ok {
			t.Errorf("%s names no end-to-end metric it should move", m.Name)
			continue
		}
		if !e2e[l.moves] && l.moves != "none" {
			t.Errorf("%s should move %q, which is not an end-to-end metric", m.Name, l.moves)
		}
		if len(l.on) == 0 {
			t.Errorf("%s names no workload it should move", m.Name)
		}
		for _, w := range l.on {
			if !slices.Contains(names, w) {
				t.Errorf("%s should move %s on %q, which is not a workload", m.Name, l.moves, w)
			}
		}
	}

	if len(sp.Command) != 2 || sp.Command[0] != "bash" || sp.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %q", sp.Command)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths = %q", sp.Paths)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1-60", sp.RunSeconds)
	}
}
