// GUPS shoot-out: the distributed hashtable under one-sided CAS and
// the paper's broadcast-style two-sided protocol, across rank counts —
// reproducing the Fig-9 crossover where two-sided wins at P=2 and
// loses several-fold at scale.
package main

import (
	"fmt"
	"log"

	"msgroofline/internal/comm"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
)

func main() {
	pm := machine.PerlmutterCPU
	fmt.Println("distributed hashtable, Perlmutter CPU, 128 inserts/process")
	fmt.Printf("%6s %16s %16s %10s\n", "ranks", "two-sided", "one-sided", "1s/2s")
	for _, p := range []int{2, 8, 32, 128} {
		cfg := hashtable.Config{Machine: pm, Ranks: p, TotalInserts: 128 * p}
		cfg.Transport = comm.TwoSided
		two, err := hashtable.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Transport = comm.OneSided
		one, err := hashtable.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %9.0f upd/s %9.0f upd/s %9.2fx\n",
			p, two.UpdatesPerSec, one.UpdatesPerSec,
			one.UpdatesPerSec/two.UpdatesPerSec)
	}

	fmt.Println("\nGPU atomics (NVSHMEM CAS), 600 inserts/PE:")
	for _, g := range []*machine.Config{machine.PerlmutterGPU, machine.SummitGPU} {
		fmt.Printf("  %s:\n", g.Title)
		for p := 1; p <= g.MaxRanks; p++ {
			res, err := hashtable.Run(hashtable.Config{Machine: g, Transport: comm.Shmem, Ranks: p, TotalInserts: 600 * g.MaxRanks})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("    %d GPU(s): %12v  (%.0f updates/s, %d collisions)\n",
				p, res.Elapsed, res.UpdatesPerSec, res.Collisions)
		}
	}
	fmt.Println("\nObservation (paper §III-C): one-sided wins at scale; Summit stops")
	fmt.Println("scaling past 3 GPUs because cross-socket CAS costs 1.6us over the X-Bus.")
}
