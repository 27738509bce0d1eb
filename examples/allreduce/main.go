// AllReduce explorer: the paper's named future work ("AI applications
// using NCCL") — run NCCL-style ring collectives on the simulated GPU
// machines, including the Frontier GPU extension platform the paper
// could not measure, and place the results on the Message Roofline.
package main

import (
	"fmt"
	"log"

	"msgroofline/internal/ccl"
	"msgroofline/internal/core"
	"msgroofline/internal/machine"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

func main() {
	for _, cfg := range []*machine.Config{machine.PerlmutterGPU, machine.SummitGPU, machine.FrontierGPU} {
		fmt.Printf("%s (%d GPUs):\n", cfg.Title, cfg.MaxRanks)
		fmt.Printf("  %10s %14s %12s\n", "elements", "time", "algbw GB/s")
		for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
			elapsed, err := runAllReduce(cfg, cfg.MaxRanks, n)
			if err != nil {
				log.Fatal(err)
			}
			moved := float64(8*n) * 2 * float64(cfg.MaxRanks-1) / float64(cfg.MaxRanks)
			fmt.Printf("  %10d %14v %12.2f\n", n, elapsed, moved/elapsed.Seconds()/1e9)
		}
		// Where does the collective sit on the roofline? Ring steps
		// move chunks of n/P elements; 2(P-1) steps per allreduce.
		model, err := core.ForMachine(cfg, machine.GPUShmem, cfg.MaxRanks, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		chunk := int64(8 * (1 << 18) / cfg.MaxRanks)
		steps := 2 * (cfg.MaxRanks - 1)
		fmt.Printf("  roofline: %d ring steps of %d B chunks; per-step ceiling %.2f GB/s (1 msg/sync)\n\n",
			steps, chunk, model.CeilingGBs(1, chunk))
	}
	fmt.Println("Observation: ring collectives are chains of 1-msg/sync steps, so the")
	fmt.Println("Message Roofline's latency ceiling (not the flood bound) governs small")
	fmt.Println("vectors, and the aggregate-channel ceiling governs large ones.")
}

func runAllReduce(cfg *machine.Config, npes, elems int) (sim.Time, error) {
	plan, err := ccl.NewPlan(npes, elems)
	if err != nil {
		return 0, err
	}
	job, err := shmem.NewJob(cfg, npes, plan.HeapBytes())
	if err != nil {
		return 0, err
	}
	if err := plan.Bind(job, 0); err != nil {
		return 0, err
	}
	err = job.Launch(func(sc *shmem.Ctx) {
		c := plan.NewCtx(sc)
		data := make([]float64, elems)
		for i := range data {
			data[i] = float64(sc.MyPE() + i)
		}
		if e := c.AllReduce(data); e != nil {
			log.Fatal(e)
		}
	})
	return job.Elapsed(), err
}
