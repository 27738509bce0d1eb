// Command msgroof runs the Message Roofline microbenchmarks on a
// simulated machine and renders the roofline chart with measured dots
// and fitted ceilings (the Figs 1/3/4 machinery, interactively).
//
// Usage:
//
//	msgroof -machine perlmutter-cpu -transport two-sided
//	msgroof -machine perlmutter-gpu -transport gpu-shmem -csv out.csv
//	msgroof -machine perlmutter-gpu -split          (Fig 10 experiment)
//	msgroof -cpuprofile cpu.pprof -memprofile mem.pprof ...
//	                                    (pprof profiles for engine perf work)
//
// Sweep points are independent simulations and run concurrently on up
// to -jobs workers (default: the number of CPUs); output is
// byte-identical at any -jobs value. -shards sets the window worker
// parallelism of every simulated world and likewise never changes
// output (see internal/cliflags). The "wrote" line of -csv goes to
// stderr with the other host metadata, so stdout is the chart alone.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"msgroofline/internal/bench"
	"msgroofline/internal/cliflags"
	"msgroofline/internal/core"
	"msgroofline/internal/machine"
	"msgroofline/internal/plot"
	"msgroofline/internal/table"
)

func main() {
	mName := flag.String("machine", "perlmutter-cpu", "machine: "+machine.NameList())
	tName := flag.String("transport", "two-sided", "transport: "+bench.TransportList())
	split := flag.Bool("split", false, "run the Fig-10 message-splitting experiment instead of a sweep")
	csvPath := flag.String("csv", "", "write measured series to this CSV file")
	jobs := flag.Int("jobs", runtime.NumCPU(),
		"number of independent simulations run concurrently (output is byte-identical at any value)")
	common := cliflags.Register(flag.CommandLine, "msgroof")
	flag.Parse()

	stop, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stop()

	cfg, err := machine.Get(*mName)
	if err != nil {
		fatal(err)
	}
	if *split {
		runSplit(cfg, *csvPath)
		common.ReportShards("shards")
		return
	}
	ns := bench.DefaultNs()
	sizes := bench.DefaultSizes()
	transport, err := bench.ParseTransport(*tName)
	if err != nil {
		fatal(err)
	}
	res, err := bench.Sweep(cfg, bench.Spec{Transport: transport, Ns: ns, Sizes: sizes,
		Jobs: *jobs, Shards: common.Shards})
	if err != nil {
		fatal(err)
	}
	// The strict protocol fits against the one-sided parameter set.
	tr := machine.TwoSided
	switch transport {
	case bench.OneSided, bench.OneSidedStrict:
		tr = machine.OneSided
	case bench.ShmemPutSignal:
		tr = machine.GPUShmem
	case bench.StreamTriggered:
		tr = machine.StreamTriggered
	case bench.MemChannel:
		tr = machine.MemChannel
	}
	tp, ok := cfg.Params(tr)
	if !ok {
		fatal(fmt.Errorf("machine %s lacks transport %v", cfg.Name, tr))
	}
	model, err := core.Fit(fmt.Sprintf("%s %s (fitted)", cfg.Name, *tName),
		res.Samples(), tp.OpsPerMsg, tp.Gap, cfg.TheoreticalGBs)
	if err != nil {
		fatal(err)
	}
	chart := plot.Chart{
		Title:  fmt.Sprintf("Message Roofline — %s %s", cfg.Title, *tName),
		XLabel: "message size (bytes)", YLabel: "GB/s", XLog: true, YLog: true,
	}
	for _, n := range ns {
		chart.Add(model.CeilingSeries(n, sizes))
	}
	chart.Series = append(chart.Series, res.Series()...)
	fmt.Println(chart.Render())
	fmt.Printf("fitted %v  (RMS rel. err %.3f)\n", model.Params, core.FitError(model.Params, res.Samples()))
	fmt.Printf("peak measured %.2f GB/s of %.0f GB/s theoretical\n", res.MaxGBs(), cfg.TheoreticalGBs)
	common.ReportSched("sweep", res.Sched)
	common.ReportShards("shards")
	writeCSV(*csvPath, res.Series())
}

func runSplit(cfg *machine.Config, csvPath string) {
	var volumes []int64
	for v := int64(1 << 10); v <= 4<<20; v *= 2 {
		volumes = append(volumes, v)
	}
	pts, err := bench.SweepSplit(cfg, 4, volumes)
	if err != nil {
		fatal(err)
	}
	t := table.New(fmt.Sprintf("Message splitting on %s (4-way)", cfg.Title),
		"volume (B)", "whole (us)", "split (us)", "speedup")
	ser := plot.Series{Name: "4-way split speedup"}
	for _, p := range pts {
		t.AddRow(fmt.Sprint(p.Volume),
			fmt.Sprintf("%.2f", p.Whole.Microseconds()),
			fmt.Sprintf("%.2f", p.Split.Microseconds()),
			fmt.Sprintf("%.2f", p.Speedup))
		ser.X = append(ser.X, float64(p.Volume))
		ser.Y = append(ser.Y, p.Speedup)
	}
	fmt.Println(t.Render())
	writeCSV(csvPath, []plot.Series{ser})
}

func writeCSV(path string, series []plot.Series) {
	if path == "" {
		return
	}
	if err := plot.WriteCSVFile(path, series); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msgroof:", err)
	os.Exit(1)
}
