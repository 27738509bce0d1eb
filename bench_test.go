// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the index). Each benchmark
// runs the experiment's core measurement under b.N and reports the
// relevant *simulated* quantity (sim_us, GB/s, updates/s) alongside
// the wall-clock cost of regenerating it.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=Fig9 -benchmem
//
// These benchmarks are for local profiling; the simulator's recorded
// performance comes from `bash benchmark/run.sh` (see benchmark/).
package msgroofline

import (
	"runtime"
	"testing"

	"msgroofline/internal/bench"
	"msgroofline/internal/ccl"
	"msgroofline/internal/comm"
	"msgroofline/internal/experiments"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
	"msgroofline/internal/shmem"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/stencil"
)

func mc(b *testing.B, name string) *machine.Config {
	b.Helper()
	c, err := machine.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkSuiteQuick regenerates the entire quick-scale experiment
// suite through the concurrent scheduler (the cmd/experiments path).
func BenchmarkSuiteQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := experiments.RunSuite(experiments.Registry(), experiments.SuiteOptions{Scale: experiments.Quick, Jobs: sweepJobs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates the platform table.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates the workload characterization from
// traced runs.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(&experiments.Env{Scale: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1MessageRoofline measures the Frontier one-sided sweep
// and fits the roofline.
func BenchmarkFig1MessageRoofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(&experiments.Env{Scale: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Topology rebuilds and queries all five fabrics.
func BenchmarkFig2Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepJobs is the scheduler width the benchmark suite's sweeps use:
// all cores, so the suite itself exercises (and benefits from) the
// parallel sweep scheduler.
var sweepJobs = runtime.GOMAXPROCS(0)

// Fig 3: two-sided vs one-sided MPI bandwidth per CPU machine. The
// reported GB/s metric is the 256-msg/sync 64 KiB point.
func benchFig3(b *testing.B, machineName string, oneSided bool) {
	cfg := mc(b, machineName)
	transport := bench.TwoSided
	if oneSided {
		transport = bench.OneSided
	}
	spec := bench.Spec{Transport: transport, Ns: []int{256}, Sizes: []int64{65536}, Jobs: sweepJobs}
	var gbs float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Sweep(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := res.At(256, 65536)
		gbs = p.GBs
	}
	b.ReportMetric(gbs, "simGB/s")
}

func BenchmarkFig3PerlmutterCPUTwoSided(b *testing.B) { benchFig3(b, "perlmutter-cpu", false) }
func BenchmarkFig3PerlmutterCPUOneSided(b *testing.B) { benchFig3(b, "perlmutter-cpu", true) }
func BenchmarkFig3FrontierCPUTwoSided(b *testing.B)   { benchFig3(b, "frontier-cpu", false) }
func BenchmarkFig3FrontierCPUOneSided(b *testing.B)   { benchFig3(b, "frontier-cpu", true) }
func BenchmarkFig3SummitCPUTwoSided(b *testing.B)     { benchFig3(b, "summit-cpu", false) }
func BenchmarkFig3SummitCPUOneSided(b *testing.B)     { benchFig3(b, "summit-cpu", true) }

// Fig 4: GPU put-with-signal sweeps and CAS latency.
func benchFig4Put(b *testing.B, machineName string) {
	cfg := mc(b, machineName)
	spec := bench.Spec{Transport: bench.ShmemPutSignal, Ns: []int{256}, Sizes: []int64{65536}, Jobs: sweepJobs}
	var gbs float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Sweep(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := res.At(256, 65536)
		gbs = p.GBs
	}
	b.ReportMetric(gbs, "simGB/s")
}

func BenchmarkFig4PerlmutterGPUPutSignal(b *testing.B) { benchFig4Put(b, "perlmutter-gpu") }
func BenchmarkFig4SummitGPUPutSignal(b *testing.B)     { benchFig4Put(b, "summit-gpu") }

func BenchmarkFig4GPUAtomicCAS(b *testing.B) {
	cfg := mc(b, "perlmutter-gpu")
	var us float64
	for i := 0; i < b.N; i++ {
		lat, err := bench.CASLatency(cfg, 4, 1, 64)
		if err != nil {
			b.Fatal(err)
		}
		us = lat.Microseconds()
	}
	b.ReportMetric(us, "simCAS_us")
}

// Fig 5: stencil per-iteration time per transport.
func benchFig5(b *testing.B, kind comm.Kind, machineName string, px, py int) {
	cfg := stencil.Config{Machine: mc(b, machineName), Transport: kind, Grid: 2048, Iters: 4, PX: px, PY: py}
	var us float64
	for i := 0; i < b.N; i++ {
		res, err := stencil.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		us = res.PerIter.Microseconds()
	}
	b.ReportMetric(us, "simIter_us")
}

func BenchmarkFig5StencilTwoSided(b *testing.B) {
	benchFig5(b, comm.TwoSided, "perlmutter-cpu", 8, 8)
}
func BenchmarkFig5StencilOneSided(b *testing.B) {
	benchFig5(b, comm.OneSided, "perlmutter-cpu", 8, 8)
}
func BenchmarkFig5StencilGPU(b *testing.B) { benchFig5(b, comm.Shmem, "perlmutter-gpu", 2, 2) }

// Fig 6: workload bounds on the roofline.
func BenchmarkFig6WorkloadBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(&experiments.Env{Scale: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 7: latency vs msg/sync.
func BenchmarkFig7LatencyVsMsgSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(&experiments.Env{Scale: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 8: SpTRSV solve per transport; reports simulated solve time.
func benchFig8(b *testing.B, kind comm.Kind, machineName string, ranks int) {
	m, err := spmat.Generate(spmat.Params{N: 2400, MeanSnode: 24, Fill: 1.0, Seed: 20230901})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sptrsv.Config{Machine: mc(b, machineName), Transport: kind, Matrix: m, Ranks: ranks}
	var us float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sptrsv.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		us = res.Elapsed.Microseconds()
	}
	b.ReportMetric(us, "simSolve_us")
}

func BenchmarkFig8SpTRSVTwoSided(b *testing.B) { benchFig8(b, comm.TwoSided, "perlmutter-cpu", 16) }
func BenchmarkFig8SpTRSVOneSided(b *testing.B) { benchFig8(b, comm.OneSided, "perlmutter-cpu", 16) }
func BenchmarkFig8SpTRSVGPU(b *testing.B)      { benchFig8(b, comm.Shmem, "perlmutter-gpu", 4) }
func BenchmarkFig8SpTRSVSummitGPU(b *testing.B) {
	benchFig8(b, comm.Shmem, "summit-gpu", 4)
}

// Fig 9: hashtable updates/s per transport.
func benchFig9(b *testing.B, kind comm.Kind, machineName string, ranks int) {
	cfg := hashtable.Config{Machine: mc(b, machineName), Transport: kind, Ranks: ranks, TotalInserts: 64 * ranks}
	var ups float64
	for i := 0; i < b.N; i++ {
		res, err := hashtable.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ups = res.UpdatesPerSec
	}
	b.ReportMetric(ups, "simUpdates/s")
}

func BenchmarkFig9HashtableTwoSided(b *testing.B) { benchFig9(b, comm.TwoSided, "perlmutter-cpu", 32) }
func BenchmarkFig9HashtableOneSided(b *testing.B) { benchFig9(b, comm.OneSided, "perlmutter-cpu", 32) }
func BenchmarkFig9HashtableGPU(b *testing.B)      { benchFig9(b, comm.Shmem, "perlmutter-gpu", 4) }
func BenchmarkFig9HashtableSummitGPU(b *testing.B) {
	benchFig9(b, comm.Shmem, "summit-gpu", 6)
}

// Fig 10: message splitting speedup; reports the 1 MiB 4-way speedup.
func BenchmarkFig10Split(b *testing.B) {
	cfg := mc(b, "perlmutter-gpu")
	var speedup float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.SweepSplit(cfg, 4, []int64{1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		speedup = pts[0].Speedup
	}
	b.ReportMetric(speedup, "simSpeedup_x")
}

// Ablation benches (DESIGN.md §6).

// BenchmarkAblationPollingCost quantifies the Listing-1 receiver scan
// cost: simulated one-sided solve time with charged vs free polling.
func BenchmarkAblationPollingCost(b *testing.B) {
	m, err := spmat.Generate(spmat.Params{N: 2400, MeanSnode: 24, Fill: 1.0, Seed: 20230901})
	if err != nil {
		b.Fatal(err)
	}
	pm := mc(b, "perlmutter-cpu")
	var overhead float64
	for i := 0; i < b.N; i++ {
		with, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.OneSided, Matrix: m, Ranks: 16})
		if err != nil {
			b.Fatal(err)
		}
		free, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.OneSided, Matrix: m, Ranks: 16, PollCheck: -1})
		if err != nil {
			b.Fatal(err)
		}
		overhead = (with.Elapsed.Seconds() - free.Elapsed.Seconds()) / free.Elapsed.Seconds() * 100
	}
	b.ReportMetric(overhead, "pollOverhead_%")
}

// BenchmarkAblationSingleChannel quantifies what the Fig-10 speedup
// costs to lose: splitting onto one channel instead of four.
func BenchmarkAblationSingleChannel(b *testing.B) {
	cfg := mc(b, "perlmutter-gpu")
	var ratio float64
	for i := 0; i < b.N; i++ {
		multi, err := bench.SweepSplit(cfg, 4, []int64{1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		single, err := bench.SweepSplit(cfg, 1, []int64{1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		ratio = single[0].Split.Seconds() / multi[0].Split.Seconds()
	}
	b.ReportMetric(ratio, "channelGain_x")
}

// BenchmarkAblationStrictProtocol compares the strict per-message
// 4-op one-sided protocol against the windowed one (why SpTRSV can't
// batch its flushes).
func BenchmarkAblationStrictProtocol(b *testing.B) {
	cfg := mc(b, "perlmutter-cpu")
	var ratio float64
	for i := 0; i < b.N; i++ {
		strict, err := bench.Sweep(cfg, bench.Spec{Transport: bench.OneSidedStrict, Ns: []int{16}, Sizes: []int64{400}, Jobs: sweepJobs})
		if err != nil {
			b.Fatal(err)
		}
		windowed, err := bench.Sweep(cfg, bench.Spec{Transport: bench.OneSided, Ns: []int{16}, Sizes: []int64{400}, Jobs: sweepJobs})
		if err != nil {
			b.Fatal(err)
		}
		sp, _ := strict.At(16, 400)
		wp, _ := windowed.At(16, 400)
		ratio = sp.Elapsed.Seconds() / wp.Elapsed.Seconds()
	}
	b.ReportMetric(ratio, "strictPenalty_x")
}

// Extension benches (EXPERIMENTS.md "Extensions beyond the paper").

// BenchmarkExtensionCCLAllReduce measures the NCCL-style ring
// allreduce of a 2 MiB vector on Perlmutter GPU, reporting algorithm
// bandwidth.
func BenchmarkExtensionCCLAllReduce(b *testing.B) {
	cfg := mc(b, "perlmutter-gpu")
	const elems = 1 << 18
	var algbw float64
	for i := 0; i < b.N; i++ {
		plan, err := ccl.NewPlan(4, elems)
		if err != nil {
			b.Fatal(err)
		}
		job, err := shmem.NewJob(cfg, 4, plan.HeapBytes())
		if err != nil {
			b.Fatal(err)
		}
		if err := plan.Bind(job, 0); err != nil {
			b.Fatal(err)
		}
		err = job.Launch(func(sc *shmem.Ctx) {
			c := plan.NewCtx(sc)
			data := make([]float64, elems)
			for j := range data {
				data[j] = float64(sc.MyPE() + j)
			}
			if e := c.AllReduce(data); e != nil {
				b.Error(e)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		moved := float64(8*elems) * 2 * 3 / 4
		algbw = moved / job.Elapsed().Seconds() / 1e9
	}
	b.ReportMetric(algbw, "simAlgGB/s")
}

// BenchmarkExtensionFrontierGPUSpTRSV runs the solver on the
// projected ROC_SHMEM platform the paper could not measure.
func BenchmarkExtensionFrontierGPUSpTRSV(b *testing.B) {
	benchFig8(b, comm.Shmem, "frontier-gpu", 4)
}

// BenchmarkAblationCutThrough quantifies DESIGN.md ablation #1: the
// delivered-time ratio of store-and-forward vs cut-through timing on
// Summit's 3-hop cross-island path for a 64 KiB message. The reported
// metric bounds the error our store-and-forward choice introduces on
// the deepest path in the catalog.
func BenchmarkAblationCutThrough(b *testing.B) {
	cfg := mc(b, "summit-gpu")
	var ratio float64
	for i := 0; i < b.N; i++ {
		inSF, err := cfg.Instantiate(6)
		if err != nil {
			b.Fatal(err)
		}
		sf, err := inSF.Net.Transfer(0, "sg:g0", "sg:g3", 65536, 0)
		if err != nil {
			b.Fatal(err)
		}
		inCT, err := cfg.Instantiate(6)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := inCT.Net.TransferCutThrough(0, "sg:g0", "sg:g3", 65536, 0)
		if err != nil {
			b.Fatal(err)
		}
		ratio = sf.Seconds() / ct.Seconds()
	}
	b.ReportMetric(ratio, "sfOverCt_x")
}
