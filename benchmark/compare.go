package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// specPath is BENCHMARK.json relative to the repository root the
// benchmark runs from.
const specPath = "BENCHMARK.json"

// spec is BENCHMARK.json, the benchmark's definition at the repository
// root: its command, workloads, and metrics with their bounds.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before it counts as a regression.
	Bound *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	var s spec
	if err := decodeFile(path, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

func decodeFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// setupFloor is the absolute allowance for setup_s: setup takes tens
// of milliseconds, so a relative bound alone would flag scheduling
// noise of a few milliseconds as a regression.
const setupFloor = 0.05

// verdict judges b against the baseline a. A worsening of b's median
// by more than the bound's share of a's median (or the floor, if
// larger) is "regressed". When either side's IQR is wider than that
// allowance the comparison is "unresolved", unless every b value beats
// every a value.
func verdict(a, b summary, bound, floor float64, better string) string {
	sign := 1.0 // lower is better: a positive difference is worse
	if better == "higher" {
		sign = -1
	}
	allowed := math.Max(bound*math.Abs(a.Median), floor)
	if math.Max(a.IQR, b.IQR) > allowed && !allBetter(a.Values, b.Values, sign) {
		return "unresolved"
	}
	if sign*(b.Median-a.Median) > allowed {
		return "regressed"
	}
	return "ok"
}

func allBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareReports prints, for each workload and end-to-end metric, both
// medians, the relative change and the verdict. fail_ratio may not
// increase at all. It returns 1 if anything regressed.
func compareReports(pathA, pathB, specPath string, w io.Writer) (int, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return 2, err
	}
	var a, b report
	if err := decodeFile(pathA, &a); err != nil {
		return 2, err
	}
	if err := decodeFile(pathB, &b); err != nil {
		return 2, err
	}
	byName := func(r report) map[string]workloadReport {
		m := map[string]workloadReport{}
		for _, wr := range r.Workloads {
			m[wr.Name] = wr
		}
		return m
	}
	wa, wb := byName(a), byName(b)
	rules := append([]specMetric(nil), sp.EndToEnd...)
	zero := 0.0
	rules = append(rules, specMetric{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: &zero})

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s\t%s\tdelta\tverdict\n", pathA, pathB)
	code := 0
	for _, wl := range sp.Workloads {
		ra, okA := wa[wl.Name]
		rb, okB := wb[wl.Name]
		if !okA || !okB {
			return 2, fmt.Errorf("workload %s missing from a report", wl.Name)
		}
		for _, m := range rules {
			if m.Bound == nil {
				return 2, fmt.Errorf("%s: end-to-end metric %s has no bound", specPath, m.Name)
			}
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				return 2, fmt.Errorf("%s: metric %s missing from a report", wl.Name, m.Name)
			}
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloor
			}
			v := verdict(ma, mb, *m.Bound, floor, m.Better)
			if v == "regressed" {
				code = 1
			}
			delta := "-"
			if ma.Median != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(mb.Median-ma.Median)/ma.Median)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%s\t%s\n", wl.Name, m.Name, ma.Median, m.Unit, mb.Median, m.Unit, delta, v)
		}
	}
	return code, tw.Flush()
}
