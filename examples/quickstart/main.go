// Quickstart: build a simulated machine, measure a bandwidth sweep,
// fit the Message Roofline, and ask it questions — the 60-second tour
// of the library.
package main

import (
	"fmt"
	"log"
	"runtime"

	"msgroofline/internal/bench"
	"msgroofline/internal/core"
	"msgroofline/internal/machine"
)

func main() {
	// 1. Pick a platform from the catalog (Table I of the paper).
	cfg := machine.PerlmutterCPU
	fmt.Printf("machine: %s (%v, up to %d ranks, %0.f GB/s ceiling)\n\n",
		cfg.Title, cfg.Kind, cfg.MaxRanks, cfg.TheoreticalGBs)

	// 2. Measure a two-sided MPI sweep: windows of N messages of B
	// bytes between two cross-socket ranks. Every sweep point is an
	// independent simulation, so Jobs > 1 parallelizes the sweep with
	// byte-identical results.
	ns := []int{1, 16, 256}
	sizes := []int64{8, 1024, 65536, 1 << 20}
	res, err := bench.Sweep(cfg, bench.Spec{
		Transport: bench.TwoSided,
		Ranks:     2,
		Ns:        ns,
		Sizes:     sizes,
		Jobs:      runtime.GOMAXPROCS(0),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Points {
		fmt.Printf("  n=%4d  B=%8d  window=%10v  %.3f GB/s\n", p.N, p.Bytes, p.Elapsed, p.GBs)
	}

	// 3. Fit the Message Roofline from the measurements.
	tp, _ := cfg.Params(machine.TwoSided)
	model, err := core.Fit("perlmutter-cpu two-sided", res.Samples(), tp.OpsPerMsg, tp.Gap, cfg.TheoreticalGBs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfitted LogGP parameters: %v\n\n", model.Params)

	// 4. Ask the model the paper's questions.
	fmt.Printf("tight bound for 1 msg/sync of 400 B: %.3f GB/s\n", model.CeilingGBs(1, 400))
	fmt.Printf("loose flood bound at 400 B:          %.3f GB/s\n", model.FloodGBs(400))
	fmt.Printf("overlap gain at 64 B, 100 msg/sync:  %.1fx\n", model.OverlapGain(64, 100))

	// 5. Render the roofline chart.
	fmt.Println()
	fmt.Println(model.Chart(ns, sizes, nil).Render())
}
