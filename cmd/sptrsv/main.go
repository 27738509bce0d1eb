// Command sptrsv runs the distributed sparse triangular solve on a
// synthetic supernodal factor shaped after the paper's M3D-C1 matrix
// and reports the SOLVE time (the number the paper's scripts print).
//
//	sptrsv -machine perlmutter-cpu -variant two-sided -ranks 16
//	sptrsv -machine perlmutter-gpu -variant gpu -ranks 4 -full
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"msgroofline/internal/cliflags"
	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
)

func main() {
	mName := flag.String("machine", "perlmutter-cpu", "machine: "+machine.NameList())
	variant := flag.String("variant", "two-sided", "transport: "+comm.KindList()+" (alias: gpu = shmem)")
	ranks := flag.Int("ranks", 4, "MPI ranks / GPU PEs")
	full := flag.Bool("full", false, "use the full M3D-C1-like factor (default: quick-scale)")
	seed := flag.Int64("seed", 20230901, "matrix generator seed")
	showMatrix := flag.Bool("matrix", false, "print the traffic heat map and hotspot pairs")
	common := cliflags.Register(flag.CommandLine, "sptrsv")
	flag.Parse()

	stop, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stop()

	params := spmat.Params{N: 2400, MeanSnode: 24, Fill: 1.0, Seed: *seed}
	if *full {
		params = spmat.M3DC1Like
		params.Seed = *seed
	}
	m, err := spmat.Generate(params)
	if err != nil {
		fatal(err)
	}
	cfg, err := machine.Get(*mName)
	if err != nil {
		fatal(err)
	}
	kind, err := comm.ParseKind(*variant)
	if err != nil {
		fatal(err)
	}
	res, err := sptrsv.Run(sptrsv.Config{Machine: cfg, Transport: kind, Matrix: m, Ranks: *ranks, Shards: common.Shards})
	if err != nil {
		fatal(err)
	}
	defer common.ReportShards("shards")
	fmt.Printf("machine=%s variant=%s ranks=%d\n", cfg.Name, *variant, res.Ranks)
	fmt.Printf("matrix: %d x %d, %d supernodes, %d nnz, %d DAG edges, %d levels\n",
		m.N, m.N, m.NumSupernodes(), m.NNZ(), m.Edges(), len(m.Levels()))
	fmt.Printf("SOLVE time %v\n", res.Elapsed)
	fmt.Printf("communication %s\n", res.Comm)
	if *showMatrix {
		tm := res.Matrix()
		fmt.Print(tm)
		fmt.Printf("traffic imbalance (max/mean): %.2f\n", tm.Imbalance())
		for _, pair := range tm.Hottest(3) {
			fmt.Printf("  hot pair %d->%d: %d msgs, %d bytes\n", pair.Src, pair.Dst, pair.Messages, pair.Bytes)
		}
	}

	// Verify against the serial reference.
	want, err := m.SolveSerial(sptrsv.Rhs(m.N))
	if err != nil {
		fatal(err)
	}
	worst := 0.0
	for i := range want {
		if d := math.Abs(res.X[i] - want[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("max deviation from serial solve: %.3g\n", worst)
	if worst > 1e-9 {
		fatal(fmt.Errorf("verification FAILED"))
	}
	fmt.Println("verification OK")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sptrsv:", err)
	os.Exit(1)
}
