// Stencil strong-scaling study: the Fig-5 motivating workload run
// across machines and communication models, with verified numerics at
// a small grid first.
package main

import (
	"fmt"
	"log"
	"math"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/stencil"
)

func main() {
	pm := machine.PerlmutterCPU
	pg := machine.PerlmutterGPU

	// Correctness first: all three variants must match the serial
	// reference bit-for-bit on a small verified grid.
	const vGrid, vIters = 64, 4
	want := stencil.SerialReference(vGrid, vIters)
	check := func(name string, res *stencil.Result, err error) {
		if err != nil {
			log.Fatal(err)
		}
		if math.Abs(res.Checksum-want) > 1e-9 {
			log.Fatalf("%s checksum mismatch: %v vs %v", name, res.Checksum, want)
		}
		fmt.Printf("  %-10s verified (checksum %.9f)\n", name, res.Checksum)
	}
	vc := stencil.Config{Machine: pm, Grid: vGrid, Iters: vIters, PX: 2, PY: 2, Verify: true}
	for _, kind := range []comm.Kind{comm.TwoSided, comm.OneSided, comm.Notified} {
		c := vc
		c.Transport = kind
		r, err := stencil.Run(c)
		check(kind.String(), r, err)
	}
	gv := vc
	gv.Machine = pg
	gv.Transport = comm.Shmem
	r, err := stencil.Run(gv)
	check("shmem", r, err)

	// Strong scaling at paper-like size (cost-model mode).
	fmt.Println("\nstrong scaling, grid 8192^2, 8 iterations:")
	fmt.Printf("%8s %14s %14s %14s\n", "ranks", "two-sided", "one-sided", "gpu (P<=4)")
	for _, p := range []int{4, 16, 64} {
		px, py := 1, p
		for px*px < p {
			px *= 2
		}
		px = p / (p / px)
		py = p / px
		cfg := stencil.Config{Machine: pm, Grid: 8192, Iters: 8, PX: px, PY: py}
		cfg.Transport = comm.TwoSided
		two, err := stencil.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Transport = comm.OneSided
		one, err := stencil.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		gpuCol := "-"
		if p <= 4 {
			g, err := stencil.Run(stencil.Config{Machine: pg, Transport: comm.Shmem, Grid: 8192, Iters: 8, PX: 2, PY: 2})
			if err != nil {
				log.Fatal(err)
			}
			gpuCol = fmt.Sprint(g.Elapsed)
		}
		fmt.Printf("%8d %14v %14v %14s\n", p, two.Elapsed, one.Elapsed, gpuCol)
	}
	fmt.Println("\nObservation (paper §III-A): the two communication models tie on CPUs —")
	fmt.Println("stencils are bandwidth-bound — while GPUs win on parallelism and bandwidth.")
}
