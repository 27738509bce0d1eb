// Command benchmark is the simulator's one benchmark: four workloads
// run as fresh processes, host-side end-to-end metrics with tracing
// off, and a separate traced run that times each layer from outside.
//
// Run it from the repository root through benchmark/run.sh, which
// builds it first:
//
//	bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-out FILE]
//	bash benchmark/run.sh -trace 1 [-workload NAME] [-out FILE]
//	bash benchmark/run.sh -compare a.json b.json
//
// With -workload the last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and print its result line (default: all four in turn)")
	seed := fs.Uint64("seed", 1, "input seed: phold-100k's token storm (the other workloads are seedless)")
	secs := fs.Int("seconds", 0, "measure each workload for about this many seconds (at least 3 units); 0 runs each workload's fixed rep count")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	out := fs.String("out", "", "write the JSON report to this file")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	unit := fs.String("unit", "", "run one part of this workload in this process (the harness's child processes)")
	part := fs.String("part", partRun, "with -unit: run, workers1, build or trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *secs < 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be >= 0")
		return 2
	}
	traced := *trace == 1

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
			return 2
		}
		code, err := compareReports(fs.Arg(0), fs.Arg(1), specPath, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return code
	}
	if *unit != "" {
		w, err := lookup(*unit)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if err := runUnit(w, *seed, *part, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}

	selected := workloads
	var sp *spec
	if *name != "" {
		w, err := lookup(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []*workload{w}
		// The result line carries the metrics BENCHMARK.json lists.
		if sp, err = loadSpec(specPath); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	h := &harness{exe: exe, stderr: stderr}
	rep := report{Schema: reportSchema, Traced: traced, Seed: *seed, Seconds: *secs}
	failed := 0
	for _, w := range selected {
		var r workloadReport
		if traced {
			r = h.traced(w, *seed)
		} else {
			r = summarizeSamples(w.name, h.measure(w, *seed, time.Duration(*secs)*time.Second))
		}
		failed += r.Failed
		rep.Workloads = append(rep.Workloads, r)
	}
	if *out != "" {
		rep.Host = hostInfo()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *name == "" {
		printSummary(stdout, rep)
	} else {
		res, err := resultOf(rep.Workloads[0], sp, traced)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printSummary prints a full run's medians, one row per workload.
func printSummary(w io.Writer, rep report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if rep.Traced {
		fmt.Fprintln(tw, "workload\tkernel.run_s\ttrace.overhead\tfailed")
		for _, r := range rep.Workloads {
			fmt.Fprintf(tw, "%s\t%.4f\t%.3f\t%d/%d\n", r.Name, r.Layers["kernel.run_s"].Value, r.Layers["trace.overhead"].Value, r.Failed, r.Attempted)
		}
	} else {
		fmt.Fprint(tw, "workload")
		for _, m := range endToEnd {
			fmt.Fprintf(tw, "\t%s (IQR)", m.name)
		}
		fmt.Fprintln(tw, "\tfailed")
		for _, r := range rep.Workloads {
			fmt.Fprint(tw, r.Name)
			for _, m := range endToEnd {
				s := r.Metrics[m.name]
				fmt.Fprintf(tw, "\t%.4g (%.2g) %s", s.Median, s.IQR, m.unit)
			}
			fmt.Fprintf(tw, "\t%d/%d\n", r.Failed, r.Attempted)
		}
	}
	tw.Flush()
}
