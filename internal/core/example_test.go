package core_test

import (
	"fmt"

	"msgroofline/internal/core"
	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// ExampleModel_CeilingGBs shows the model's central query: the tight
// bandwidth bound for an application given its messages per
// synchronization, compared to the loose flood bound.
func ExampleModel_CeilingGBs() {
	p := core.Params{
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

// ExampleParams_SweepBandwidth shows the model's core intuition: more
// messages per synchronization hide latency, raising sustained
// bandwidth at a fixed message size.
func ExampleParams_SweepBandwidth() {
	p := core.Params{
		L:         sim.FromMicroseconds(3),
		O:         150 * sim.Nanosecond,
		Gap:       50 * sim.Nanosecond,
		Bandwidth: 32e9,
		OpsPerMsg: 2,
	}
	for _, n := range []int{1, 10, 100, 1000} {
		fmt.Printf("n=%4d: %7.4f GB/s\n", n, p.SweepBandwidth(n, 1024)/1e9)
	}
	// Output:
	// n=   1:  0.3057 GB/s
	// n=  10:  1.5754 GB/s
	// n= 100:  2.6947 GB/s
	// n=1000:  2.9008 GB/s
}

// ExampleFit recovers LogGP parameters from measured sweep samples,
// exactly how the paper draws its latency ceilings from empirical dots.
func ExampleFit() {
	truth := core.Params{
		L: sim.FromMicroseconds(4), O: 100 * sim.Nanosecond,
		Gap: 40 * sim.Nanosecond, Bandwidth: 25e9, OpsPerMsg: 2,
	}
	var samples []core.Sample
	for _, n := range []int{1, 8, 64, 512} {
		for _, b := range []int64{8, 1024, 131072} {
			samples = append(samples, core.Sample{N: n, Bytes: b, Elapsed: truth.SweepTime(n, b)})
		}
	}
	m, _ := core.Fit("fitted", samples, 2, truth.Gap, 0)
	fmt.Printf("fitted L within 15%%: %v\n", within(float64(m.Params.L), float64(truth.L), 0.15))
	fmt.Printf("fitted bw within 15%%: %v\n", within(m.Params.Bandwidth, truth.Bandwidth, 0.15))
	// Output:
	// fitted L within 15%: true
	// fitted bw within 15%: true
}

func within(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*b
}
