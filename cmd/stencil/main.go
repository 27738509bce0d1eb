// Command stencil runs the 2-D Jacobi stencil workload with the CLI
// shape of the paper's benchmark ("./stencil <grid> <energy> <iters>
// <px> <py>", Appendix G), plus machine/variant selection flags.
//
//	stencil -machine perlmutter-gpu -variant gpu 16384 1 1000 2 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"msgroofline/internal/cliflags"
	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/stencil"
)

func main() {
	mName := flag.String("machine", "perlmutter-cpu", "machine: "+machine.NameList())
	variant := flag.String("variant", "two-sided", "transport: "+comm.KindList()+" (alias: gpu = shmem)")
	verify := flag.Bool("verify", false, "carry real grid data and check against the serial reference (small grids)")
	showMatrix := flag.Bool("matrix", false, "print the halo traffic heat map")
	common := cliflags.Register(flag.CommandLine, "stencil")
	flag.Parse()

	stop, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stop()

	args := flag.Args()
	if len(args) != 5 {
		fmt.Fprintln(os.Stderr, "usage: stencil [flags] <grid> <energy> <iters> <px> <py>")
		os.Exit(2)
	}
	grid := atoi(args[0])
	_ = atoi(args[1]) // energy: accepted for CLI compatibility, unused
	iters := atoi(args[2])
	px := atoi(args[3])
	py := atoi(args[4])

	cfg, err := machine.Get(*mName)
	if err != nil {
		fatal(err)
	}
	kind, err := comm.ParseKind(*variant)
	if err != nil {
		fatal(err)
	}
	res, err := stencil.Run(stencil.Config{
		Machine: cfg, Transport: kind,
		Grid: grid, Iters: iters, PX: px, PY: py, Verify: *verify,
		Shards: common.Shards,
	})
	if err != nil {
		fatal(err)
	}
	defer common.ReportShards("shards")
	fmt.Printf("machine=%s variant=%s grid=%d iters=%d ranks=%d\n", cfg.Name, *variant, grid, iters, res.Ranks)
	fmt.Printf("total time   %v\n", res.Elapsed)
	fmt.Printf("per iteration %v\n", res.PerIter)
	fmt.Printf("communication %s\n", res.Comm)
	if *showMatrix {
		fmt.Print(res.Matrix())
	}
	if *verify {
		want := stencil.SerialReference(grid, iters)
		fmt.Printf("checksum %.12g (serial %.12g)\n", res.Checksum, want)
		if diff := res.Checksum - want; diff > 1e-9 || diff < -1e-9 {
			fatal(fmt.Errorf("verification FAILED: checksum differs by %g", diff))
		}
		fmt.Println("verification OK")
	}
}

func atoi(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		fatal(fmt.Errorf("bad integer %q", s))
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stencil:", err)
	os.Exit(1)
}
