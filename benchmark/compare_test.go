package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := summarize([]float64{0.98, 1.00, 1.02}, "s")
	cases := []struct {
		name         string
		a, b         summary
		bound, floor float64
		better       string
		want         string
	}{
		{"unchanged", base, summarize([]float64{0.99, 1.01, 1.03}, "s"), 0.10, 0, "lower", "ok"},
		{"faster", base, summarize([]float64{0.70, 0.72, 0.74}, "s"), 0.10, 0, "lower", "ok"},
		{"worse within bound", base, summarize([]float64{1.07, 1.08, 1.09}, "s"), 0.10, 0, "lower", "ok"},
		{"worse past bound", base, summarize([]float64{1.14, 1.15, 1.16}, "s"), 0.10, 0, "lower", "regressed"},
		{"higher is better", base, summarize([]float64{0.84, 0.85, 0.86}, "s"), 0.10, 0, "higher", "regressed"},
		{"spread wider than bound", summarize([]float64{0.8, 1.0, 1.3}, "s"), base, 0.10, 0, "lower", "unresolved"},
		{"wide spread but every run better", summarize([]float64{2.0, 2.5, 3.0}, "s"), base, 0.10, 0, "lower", "ok"},
		// setup_s: 20 ms -> 40 ms doubles, but stays inside the 50 ms floor.
		{"setup floor", summarize([]float64{0.02, 0.02, 0.021}, "s"), summarize([]float64{0.04, 0.04, 0.041}, "s"), 0.25, setupFloor, "lower", "ok"},
		{"setup past floor", summarize([]float64{0.02, 0.02, 0.021}, "s"), summarize([]float64{0.09, 0.09, 0.091}, "s"), 0.25, setupFloor, "lower", "regressed"},
		{"fail_ratio unchanged", summary{Median: 0}, summary{Median: 0}, 0, 0, "lower", "ok"},
		{"fail_ratio any increase", summary{Median: 0}, summary{Median: 0.1}, 0, 0, "lower", "regressed"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.bound, c.floor, c.better); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// writeReport writes a report whose every workload has the same
// end-to-end values.
func writeReport(t *testing.T, dir, name string, wall float64, failed int) string {
	t.Helper()
	rep := report{Schema: reportSchema}
	for _, w := range workloads {
		ss := make([]sample, 5)
		for i := range ss {
			ss[i].WallS, ss[i].CPU, ss[i].RSSMB, ss[i].Setup = wall, 1.5, 100, 0.02
		}
		for i := 0; i < failed; i++ {
			ss = append(ss, sample{Err: "boom"})
		}
		rep.Workloads = append(rep.Workloads, summarizeSamples(w.name, ss))
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", 1.0, 0)
	for _, c := range []struct {
		name   string
		b      string
		code   int
		expect string
	}{
		{"same", writeReport(t, dir, "same.json", 1.02, 0), 0, "ok"},
		{"slower", writeReport(t, dir, "slow.json", 1.5, 0), 1, "regressed"},
		{"failures", writeReport(t, dir, "fail.json", 1.0, 1), 1, "regressed"},
	} {
		var out bytes.Buffer
		code, err := compareReports(a, c.b, "../BENCHMARK.json", &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if code != c.code || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: exit %d, want %d; output:\n%s", c.name, code, c.code, out.String())
		}
		if rows := strings.Count(out.String(), "\n") - 1; rows != len(workloads)*(len(endToEnd)+1) {
			t.Errorf("%s: %d rows, want one per workload x end-to-end metric (fail_ratio included)", c.name, rows)
		}
	}
}
