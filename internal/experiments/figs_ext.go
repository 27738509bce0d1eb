package experiments

import (
	"fmt"

	"msgroofline/internal/bench"
	"msgroofline/internal/ccl"
	"msgroofline/internal/comm"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
	"msgroofline/internal/plot"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/table"
)

// ExtCCL runs NCCL/RCCL-style ring allreduce across the GPU machines
// — the paper's named future work (§V).
func ExtCCL(env *Env) (*Output, error) {
	sizes := []int{1 << 10, 1 << 14, 1 << 17}
	if env.Scale == Full {
		sizes = append(sizes, 1<<20)
	}
	t := table.New("Extension — ring AllReduce (NCCL-style) on GPU machines",
		"Machine", "GPUs", "elements", "time", "algbw GB/s")
	var series []plot.Series
	for _, name := range []string{"perlmutter-gpu", "summit-gpu", "frontier-gpu"} {
		cfg, err := getMachine(name)
		if err != nil {
			return nil, err
		}
		ser := plot.Series{Name: name + " allreduce"}
		for _, n := range sizes {
			plan, err := ccl.NewPlan(cfg.MaxRanks, n)
			if err != nil {
				return nil, err
			}
			job, err := shmem.NewJob(cfg, cfg.MaxRanks, plan.HeapBytes())
			if err != nil {
				return nil, err
			}
			if err := plan.Bind(job, 0); err != nil {
				return nil, err
			}
			n := n
			err = job.Launch(func(sc *shmem.Ctx) {
				c := plan.NewCtx(sc)
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(sc.MyPE() + i)
				}
				if e := c.AllReduce(data); e != nil {
					panic(e)
				}
			})
			if err != nil {
				return nil, err
			}
			moved := float64(8*n) * 2 * float64(cfg.MaxRanks-1) / float64(cfg.MaxRanks)
			algbw := moved / job.Elapsed().Seconds() / 1e9
			t.AddRow(cfg.Title, fmt.Sprint(cfg.MaxRanks), fmt.Sprint(n),
				fmt.Sprint(job.Elapsed()), fmt.Sprintf("%.2f", algbw))
			ser.X = append(ser.X, float64(8*n))
			ser.Y = append(ser.Y, algbw)
		}
		series = append(series, ser)
	}
	return &Output{
		ID:     "ext-ccl",
		Title:  "Ring collectives (paper future work)",
		Text:   t.Render(),
		Series: series,
		Notes: []string{
			"Ring allreduce is a chain of 1-msg/sync steps: small vectors sit on the latency ceiling, large ones approach the aggregate-channel ceiling.",
			"Perlmutter's 4 NVLink3 channels per pair give it the best algorithm bandwidth; Summit pays the dumbbell for cross-island ring hops.",
		},
	}, nil
}

// ExtFrontierGPU runs the paper's GPU experiments on the Frontier GPU
// extension platform (projected ROC_SHMEM parameters).
func ExtFrontierGPU(env *Env) (*Output, error) {
	s := env.Scale
	cfg, err := getMachine("frontier-gpu")
	if err != nil {
		return nil, err
	}
	ns, sizes := sweepDims(s)
	res, err := bench.Sweep(cfg, bench.Spec{Transport: bench.ShmemPutSignal, Ns: ns, Sizes: sizes, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	t := table.New("Extension — Frontier GPU (projected ROC_SHMEM)",
		"Experiment", "Result", "Compare")
	p1, _ := res.At(ns[0], sizes[0])
	t.AddRow("put-with-signal latency", fmt.Sprintf("%.2f us", p1.Elapsed.Microseconds()),
		"NVSHMEM: 3.9 (Perlmutter) / 4.8 (Summit)")
	cas, err := bench.CASLatency(cfg, 4, 1, 32)
	if err != nil {
		return nil, err
	}
	t.AddRow("atomic CAS", fmt.Sprintf("%.2f us", cas.Microseconds()),
		"NVSHMEM: 0.88 (Perlmutter) / 1.05 (Summit in-island)")
	mat, _, err := matrixFor(s)
	if err != nil {
		return nil, err
	}
	for _, p := range []int{1, 2, 4} {
		r, err := sptrsv.Run(sptrsv.Config{Machine: cfg, Transport: comm.Shmem, Matrix: mat, Ranks: p, Shards: env.Shards})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("SpTRSV, %d GPU(s)", p), msStr(r.Elapsed)+" ms", "wait_until_any now exercised")
	}
	inserts := 2400
	if s == Full {
		inserts = 20000
	}
	for _, p := range []int{1, 4} {
		r, err := hashtable.Run(hashtable.Config{Machine: cfg, Transport: comm.Shmem, Ranks: p, TotalInserts: inserts, Shards: env.Shards})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("hashtable, %d GPU(s)", p), msStr(r.Elapsed)+" ms",
			fmt.Sprintf("%.0f updates/s", r.UpdatesPerSec))
	}
	return &Output{
		ID:     "ext-frontier",
		Title:  "Frontier GPU extension (the platform the paper could not run)",
		Text:   t.Render(),
		Series: res.Series(),
		Notes: []string{
			"The paper excluded Frontier GPUs because ROC_SHMEM lacked wait_until_any (§II); our SHMEM layer implements it, so the full workload suite runs.",
			"ROC_SHMEM parameters are projections (no paper data to calibrate against); results are marked as extension output, not reproduction.",
		},
	}, nil
}

// ExtOffload contrasts the two offloaded transports against their
// host-driven baselines: stream-triggered MPI moves the host overhead
// o off the critical path (descriptors enqueue ahead of time, the
// trigger engine pays T on it instead), and the RAMC-style memory
// channel amortizes a one-time open handshake over an ordered FIFO.
func ExtOffload(env *Env) (*Output, error) {
	ns, sizes := sweepDims(env.Scale)
	gpu, err := getMachine("perlmutter-gpu")
	if err != nil {
		return nil, err
	}
	cpu, err := getMachine("perlmutter-cpu")
	if err != nil {
		return nil, err
	}
	resST, err := bench.Sweep(gpu, bench.Spec{Transport: bench.StreamTriggered, Ns: ns, Sizes: sizes, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	resMC, err := bench.Sweep(cpu, bench.Spec{Transport: bench.MemChannel, Ns: ns, Sizes: sizes, Shards: env.Shards})
	if err != nil {
		return nil, err
	}

	// The o/L split: where each transport's per-message cost lives.
	split := table.New("Extension — offloaded transports: o/L split vs host-driven baselines",
		"Machine", "Transport", "o (us)", "L+T (us)", "ceiling @8B", "ceiling @1MB")
	for _, r := range []struct {
		cfg      string
		base, tr machine.Transport
	}{
		{"perlmutter-gpu", machine.GPUShmem, machine.StreamTriggered},
		{"perlmutter-cpu", machine.OneSided, machine.MemChannel},
	} {
		cfg, err := getMachine(r.cfg)
		if err != nil {
			return nil, err
		}
		in, err := cfg.Instantiate(2)
		if err != nil {
			return nil, err
		}
		for _, tr := range []machine.Transport{r.base, r.tr} {
			p, err := in.ModelParams(tr, 0, 1)
			if err != nil {
				return nil, err
			}
			ceil := p.RoundedBandwidth
			if p.Trigger > 0 || tr == machine.MemChannel {
				ceil = p.OffloadBandwidth
			}
			split.AddRow(cfg.Name, tr.String(), usStr(sim.Time(p.OpsPerMsg)*p.O),
				usStr(p.L+p.Trigger),
				fmt.Sprintf("%.4f GB/s", ceil(8)/1e9),
				fmt.Sprintf("%.1f GB/s", ceil(1<<20)/1e9))
		}
	}

	// Micro-numbers: the calibrated constants recovered from timing.
	micro := table.New("Offload micro-measurements (recovered vs calibrated)",
		"Quantity", "Measured", "Calibrated")
	trig, err := bench.TriggerDelay(gpu, 2, 64)
	if err != nil {
		return nil, err
	}
	stp, _ := gpu.Params(machine.StreamTriggered)
	micro.AddRow("stream trigger delivery latency (perlmutter-gpu)",
		usStr(trig)+" us", usStr(stp.TriggerLatency)+" us trigger")
	open, err := bench.ChannelOpen(cpu, 2)
	if err != nil {
		return nil, err
	}
	mcp, _ := cpu.Params(machine.MemChannel)
	micro.AddRow("memory-channel open handshake (perlmutter-cpu)",
		usStr(open)+" us", usStr(mcp.ChannelOpen)+" us open")

	var series []plot.Series
	series = append(series, resST.Series()...)
	series = append(series, resMC.Series()...)
	return &Output{
		ID:     "ext-offload",
		Title:  "Offloaded transports: stream-triggered MPI and memory channels",
		Text:   split.Render() + "\n" + micro.Render(),
		Series: series,
		Notes: []string{
			"Stream-triggered puts show near-zero host o: the cost moved into the trigger latency T, so the small-message ceiling is set by L+T alone (OffloadBandwidth).",
			"The memory channel pays a one-time per-destination open; steady-state sends ride a single fused op with FIFO ordering guaranteed by the channel, not by fences.",
			fmt.Sprintf("Measured trigger delay %.2f us ~= L+T for an 8 B descriptor; measured cold-minus-warm open cost recovers the calibrated %.0f us handshake exactly.",
				trig.Microseconds(), mcp.ChannelOpen.Microseconds()),
		},
	}, nil
}

// ExtNotified quantifies the paper's concluding inference: with
// hardware-level put-with-signal ("notified access"), one-sided MPI
// outperforms two-sided on the latency-bound SpTRSV — the cited foMPI
// result is 1.5x (Liu et al., §V).
func ExtNotified(env *Env) (*Output, error) {
	s := env.Scale
	// The comparison only bites where communication dominates, so the
	// headline table uses a latency-bound matrix (shallow compute per
	// DAG level); the full M3D-C1-scale factor is shown for context —
	// there compute hides most of the per-message difference.
	latencyBound, err := spmat.Generate(spmat.Params{N: 2400, MeanSnode: 24, Fill: 1.0, Seed: 20230901})
	if err != nil {
		return nil, err
	}
	pm, err := getMachine("perlmutter-cpu")
	if err != nil {
		return nil, err
	}
	ranks := []int{4, 8, 16}
	if s == Full {
		ranks = []int{4, 8, 16, 32}
	}
	run := func(t *table.Table, mat *spmat.SupTri) (best float64, err error) {
		for _, p := range ranks {
			two, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.TwoSided, Matrix: mat, Ranks: p, Shards: env.Shards})
			if err != nil {
				return 0, err
			}
			one, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.OneSided, Matrix: mat, Ranks: p, Shards: env.Shards})
			if err != nil {
				return 0, err
			}
			ntf, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.Notified, Matrix: mat, Ranks: p, Shards: env.Shards})
			if err != nil {
				return 0, err
			}
			ratio := two.Elapsed.Seconds() / ntf.Elapsed.Seconds()
			if ratio > best {
				best = ratio
			}
			t.AddRow(fmt.Sprint(p), msStr(two.Elapsed), msStr(one.Elapsed), msStr(ntf.Elapsed),
				fmt.Sprintf("%.2fx", ratio))
		}
		return best, nil
	}
	t1 := table.New("Extension — SpTRSV with notified access, latency-bound factor (2400^2)",
		"Ranks", "two-sided (ms)", "one-sided 4-op (ms)", "notified (ms)", "notified vs two-sided")
	best, err := run(t1, latencyBound)
	if err != nil {
		return nil, err
	}
	text := t1.Render()
	notes := []string{
		fmt.Sprintf("Best notified-access speedup over two-sided: %.2fx on the latency-bound factor (foMPI literature: ~1.5x).", best),
		"The standard one-sided path loses (4 ops, 2 flush round trips, Listing-1 polling); fusing the signal into the put flips the comparison, exactly as §V predicts.",
	}
	if s == Full {
		full, matNote, err := matrixFor(Full)
		if err != nil {
			return nil, err
		}
		t2 := table.New("Same comparison on the full factor (compute-heavy: gains shrink)",
			"Ranks", "two-sided (ms)", "one-sided 4-op (ms)", "notified (ms)", "notified vs two-sided")
		if _, err := run(t2, full); err != nil {
			return nil, err
		}
		text += "\n" + t2.Render()
		notes = append(notes, matNote+" — on this compute-heavy factor the per-message saving is hidden by local work.")
	}
	return &Output{
		ID:    "ext-notified",
		Title: "Notified access: the paper's concluding inference, quantified",
		Text:  text,
		Notes: notes,
	}, nil
}
