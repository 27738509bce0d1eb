// Command experiments regenerates every table and figure of the
// paper's evaluation from the simulated stack.
//
// Usage:
//
//	experiments [-scale quick|full] [-only fig3,fig9] [-jobs N] [-csv DIR] [-list]
//	            [-shards N] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Experiments run concurrently on up to -jobs workers (default: the
// number of CPUs); every experiment is an independent, deterministic
// simulation and results are rendered in registry order, so stdout is
// byte-identical at any -jobs value. Wall-time reporting goes to
// stderr. With -csv DIR each experiment's series are written to
// DIR/<id>.csv, and the "wrote" lines go to stderr too, so stdout
// stays the rendered suite.
//
// -shards sets the window worker parallelism of every simulated
// world. Worlds decompose into per-node-group sequential engines
// coupled by a conservative-lookahead window protocol; the
// decomposition and the event order are topology-determined, so
// stdout is byte-identical at any -shards setting (the CI
// shard-determinism job compares -shards 1 and -shards 4 against the
// committed golden byte for byte, and greps the stderr shard
// utilization line to prove the grouped path ran).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"msgroofline/internal/cliflags"
	"msgroofline/internal/experiments"
	"msgroofline/internal/plot"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV series")
	list := flag.Bool("list", false, "list experiment ids and exit")
	common := cliflags.Register(flag.CommandLine, "experiments")
	flag.Parse()

	stop, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stop()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	selected := experiments.Registry()
	if *only != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.Get(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	outs, stats, _, err := experiments.RunSuite(selected, experiments.SuiteOptions{
		Scale: scale, Jobs: common.Jobs, Shards: common.Shards,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, out := range outs {
		fmt.Println(out.Render())
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v wall time)\n",
			out.ID, stats.JobWall[i].Round(time.Millisecond))
		if *csvDir != "" && len(out.Series) > 0 {
			path := filepath.Join(*csvDir, out.ID+".csv")
			if err := plot.WriteCSVFile(path, out.Series); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	common.ReportSched("suite", stats)
	common.ReportShards("shards")
}
