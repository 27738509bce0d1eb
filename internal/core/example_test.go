package core_test

import (
	"fmt"

	"msgroofline/internal/core"
	"msgroofline/internal/loggp"
	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// ExampleModel_CeilingGBs shows the model's central query: the tight
// bandwidth bound for an application given its messages per
// synchronization, compared to the loose flood bound.
func ExampleModel_CeilingGBs() {
	p := loggp.Params{
		L:         sim.FromMicroseconds(3),
		O:         150 * sim.Nanosecond,
		Gap:       50 * sim.Nanosecond,
		Bandwidth: 32e9,
		OpsPerMsg: 2,
	}
	m := &core.Model{Name: "example", Params: p, TheoreticalGBs: 32, Channels: 1}
	// An SpTRSV-like workload: 1 message of 400 B per synchronization.
	fmt.Printf("tight bound: %.3f GB/s\n", m.CeilingGBs(1, 400))
	fmt.Printf("flood bound: %.3f GB/s\n", m.FloodGBs(400))
	// Output:
	// tight bound: 0.119 GB/s
	// flood bound: 1.143 GB/s
}

// ExampleForMachine derives the roofline for a catalog machine.
func ExampleForMachine() {
	cfg, _ := machine.Get("perlmutter-cpu")
	m, _ := core.ForMachine(cfg, machine.TwoSided, 128, 0, 127)
	fmt.Printf("%s: theoretical %.0f GB/s over %d channels\n",
		m.Name, m.TheoreticalGBs, m.Channels)
	// Output:
	// perlmutter-cpu two-sided: theoretical 32 GB/s over 4 channels
}

// ExampleModel_SplitSpeedup reproduces the Fig-10 question: is a
// large message worth splitting across NVLink port channels?
func ExampleModel_SplitSpeedup() {
	cfg, _ := machine.Get("perlmutter-gpu")
	m, _ := core.ForMachine(cfg, machine.GPUShmem, 4, 0, 1)
	fmt.Printf("1 KiB:  %.2fx\n", m.SplitSpeedup(1<<10, 4))
	fmt.Printf("1 MiB:  %.2fx\n", m.SplitSpeedup(1<<20, 4))
	// Output:
	// 1 KiB:  0.90x
	// 1 MiB:  3.09x
}
