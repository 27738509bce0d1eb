// Message-splitting explorer (Fig 10): when is it worth splitting one
// large put into several channel-pinned smaller ones on a multi-rail
// GPU interconnect? Compares the measured simulation against the
// analytic Message Roofline prediction.
package main

import (
	"fmt"
	"log"

	"msgroofline/internal/bench"
	"msgroofline/internal/core"
	"msgroofline/internal/machine"
)

func main() {
	cfg := machine.PerlmutterGPU
	model, err := core.ForMachine(cfg, machine.GPUShmem, 4, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d NVLink3 port channels per GPU pair, %0.f GB/s aggregate\n\n",
		cfg.Title, model.Channels, model.AggregateGBs)

	var volumes []int64
	for v := int64(4 << 10); v <= 4<<20; v *= 2 {
		volumes = append(volumes, v)
	}
	for _, parts := range []int{2, 4, 8} {
		fmt.Printf("splitting into %d messages:\n", parts)
		pts, err := bench.SweepSplit(cfg, parts, volumes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %10s %12s %12s %10s %10s\n", "volume", "whole", "split", "measured", "modeled")
		for _, p := range pts {
			fmt.Printf("  %10d %12v %12v %9.2fx %9.2fx\n",
				p.Volume, p.Whole, p.Split, p.Speedup, model.SplitSpeedup(p.Volume, parts))
		}
		fmt.Println()
	}
	fmt.Println("Observation (paper Fig 10): >= ~131 KB, 4-way splitting yields ~2.9x;")
	fmt.Println("8-way gains nothing more — the pair has only 4 channels, so extra parts")
	fmt.Println("serialize in waves.")
}
