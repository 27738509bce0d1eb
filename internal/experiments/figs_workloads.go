package experiments

import (
	"fmt"
	"slices"
	"strings"

	"msgroofline/internal/comm"
	"msgroofline/internal/core"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
	"msgroofline/internal/plot"
	"msgroofline/internal/sim"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/stencil"
	"msgroofline/internal/table"
)

// stencilDims maps a rank count to the paper's 2-D process grid: the
// most square factorization, wider than tall (6 -> 3x2, 128 -> 16x8).
func stencilDims(p int) (px, py int) {
	py = 1
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			py = d
		}
	}
	return p / py, py
}

// fitGrid shrinks the grid to the nearest multiple of both px and py
// so tiles stay uniform (the paper's code pads instead; the size
// difference is below 0.3%).
func fitGrid(grid, px, py int) int {
	m := px * py
	g := grid - grid%m
	if g < m {
		g = m
	}
	return g
}

func stencilScale(s Scale) (grid, iters int, note string) {
	if s == Full {
		// Paper grid; iterations reduced 20x (time scales linearly
		// per iteration, reported per-iteration).
		return 16384, 50, "grid 16384^2 as in the paper; 50 iterations instead of 1000 (per-iteration time is what Fig 5 compares)"
	}
	return 2048, 4, "quick scale: grid 2048^2, 4 iterations"
}

// TableII reports the workload characterization, with msg/sync and
// message sizes measured from traced runs.
func TableII(env *Env) (*Output, error) {
	t := table.New("Workload characterization (Table II)",
		"Workload", "Pattern", "Notify", "P2P pair", "Msg/sync (paper)", "Msg/sync (measured)", "Bytes/msg (measured)")
	pm := machine.PerlmutterCPU

	st, err := stencil.Run(stencil.Config{Machine: pm, Transport: comm.TwoSided, Grid: 512, Iters: 3, PX: 4, PY: 4, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	t.AddRow("Stencil", "BSP sync", "yes", "deterministic & fixed", "4",
		fmt.Sprintf("%.1f", st.Comm.MsgsPerSync),
		fmt.Sprintf("%.0f", st.Comm.MeanBytes))

	m, _, err := matrixFor(Quick)
	if err != nil {
		return nil, err
	}
	sp, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.TwoSided, Matrix: m, Ranks: 8, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	t.AddRow("SpTRSV", "DAG async", "yes", "deterministic & variable", "1",
		fmt.Sprintf("%.1f", sp.Comm.MsgsPerSync),
		fmt.Sprintf("%.0f (range %d-%d)", sp.Comm.MeanBytes, sp.Comm.MinBytes, sp.Comm.MaxBytes))

	ht, err := hashtable.Run(hashtable.Config{Machine: pm, Transport: comm.TwoSided, Ranks: 8, TotalInserts: 800, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	t.AddRow("HashTable (two-sided)", "random async", "no", "indeterministic", "P",
		fmt.Sprintf("%.1f", ht.Comm.MsgsPerSync),
		fmt.Sprintf("%.0f (3 words)", ht.Comm.MeanBytes))

	h1, err := hashtable.Run(hashtable.Config{Machine: pm, Transport: comm.OneSided, Ranks: 8, TotalInserts: 800, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	t.AddRow("HashTable (one-sided)", "random async", "no", "indeterministic", "1e6",
		fmt.Sprintf("%d atomics / 1 sync", h1.Atomics), "8 (1 word CAS)")

	return &Output{ID: "tableII", Title: "Workload characterization", Text: t.Render(),
		Notes: []string{"Measured msg/sync and sizes come from traced runs on Perlmutter CPU (stencil averages below 4 because edge ranks have fewer neighbors)."}}, nil
}

// scalingLine is one series of a strong-scaling figure: a workload on
// one machine and transport, run at each rank count of its group.
type scalingLine struct {
	m  *machine.Config
	tr comm.Kind
	// variant is the table's Variant cell; the series is named
	// m.Name + " " + suffix.
	variant, suffix string
	// run simulates the workload at p ranks and returns the elapsed
	// time and the row's cells after it.
	run func(m *machine.Config, tr comm.Kind, p int) (sim.Time, []string, error)
}

// scalingGroup is lines that share one list of rank counts.
type scalingGroup struct {
	ranks []int
	lines []scalingLine
}

// scaling runs each group's lines at each of its rank counts, in that
// order, adding one row per run to t: Platform, Variant, Ranks, the
// elapsed time in ms, then the run's cells. It returns one series of
// elapsed ms per line, in line order.
func scaling(t *table.Table, groups ...scalingGroup) ([]plot.Series, error) {
	var series []plot.Series
	for _, g := range groups {
		first := len(series)
		for _, l := range g.lines {
			series = append(series, plot.Series{Name: l.m.Name + " " + l.suffix})
		}
		for _, p := range g.ranks {
			for i, l := range g.lines {
				elapsed, cells, err := l.run(l.m, l.tr, p)
				if err != nil {
					return nil, err
				}
				t.AddRow(append([]string{l.m.Title, l.variant, fmt.Sprint(p), msStr(elapsed)}, cells...)...)
				s := &series[first+i]
				s.X = append(s.X, float64(p))
				s.Y = append(s.Y, elapsed.Seconds()*1e3)
			}
		}
	}
	return series, nil
}

// Fig5 reproduces stencil scaling on CPUs and GPUs.
func Fig5(env *Env) (*Output, error) {
	grid, iters, note := stencilScale(env.Scale)
	cpuRanks := []int{4, 8, 16, 32, 64, 128}
	if env.Scale == Quick {
		cpuRanks = []int{4, 16, 64}
	}
	run := func(m *machine.Config, tr comm.Kind, p int) (sim.Time, []string, error) {
		px, py := stencilDims(p)
		r, err := stencil.Run(stencil.Config{Machine: m, Transport: tr, Grid: fitGrid(grid, px, py), Iters: iters, PX: px, PY: py, Shards: env.Shards})
		if err != nil {
			return 0, nil, err
		}
		return r.Elapsed, []string{msStr(r.PerIter), fmt.Sprintf("%.2f", r.Comm.SustainedGBs)}, nil
	}
	t := table.New("Fig 5 — stencil time", "Platform", "Variant", "Ranks", "Total (ms)", "Per-iter (ms)", "Comm GB/s")
	series, err := scaling(t,
		scalingGroup{cpuRanks, []scalingLine{
			{machine.PerlmutterCPU, comm.TwoSided, "two-sided", "two-sided", run},
			{machine.PerlmutterCPU, comm.OneSided, "one-sided", "one-sided", run},
		}},
		scalingGroup{[]int{1, 2, 4}, []scalingLine{{machine.PerlmutterGPU, comm.Shmem, "nvshmem", "nvshmem", run}}},
		scalingGroup{[]int{1, 2, 4, 6}, []scalingLine{{machine.SummitGPU, comm.Shmem, "nvshmem", "nvshmem", run}}},
		// Host-staged GPU (§I's "communicate via the host processor"):
		// two-sided MPI on the GPU machine routes through the host.
		scalingGroup{[]int{1, 2, 4}, []scalingLine{{machine.PerlmutterGPU, comm.TwoSided, "host-staged MPI", "host-staged", run}}},
	)
	if err != nil {
		return nil, err
	}
	chart := plot.Chart{Title: "Fig 5 — stencil strong scaling", XLabel: "ranks/GPUs", YLabel: "time (ms)", XLog: true, YLog: true, Series: series}
	return &Output{ID: "fig5", Title: "Stencil scaling", Text: t.Render() + "\n" + chart.Render(), Series: series,
		Notes: []string{
			note,
			"Two-sided and one-sided perform equally on CPUs (bandwidth/compute-bound, §III-A); GPUs win from parallelism and bandwidth.",
			"The host-staged series is the §I baseline (device-host-device path); GPU-initiated NVSHMEM beats it at every GPU count.",
		}}, nil
}

// Fig6 places the three workloads' message-size ranges on the
// Perlmutter CPU Message Rooflines.
func Fig6(env *Env) (*Output, error) {
	s := env.Scale
	pm := machine.PerlmutterCPU
	mTwo, err := core.ForMachine(pm, machine.TwoSided, 128, 0, 127)
	if err != nil {
		return nil, err
	}
	mOne, err := core.ForMachine(pm, machine.OneSided, 128, 0, 127)
	if err != nil {
		return nil, err
	}
	// Workload placements from traced quick runs.
	grid, iters, _ := stencilScale(Quick)
	st, err := stencil.Run(stencil.Config{Machine: pm, Transport: comm.TwoSided, Grid: grid, Iters: iters, PX: 4, PY: 4, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	mat, _, err := matrixFor(s)
	if err != nil {
		return nil, err
	}
	sp, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.TwoSided, Matrix: mat, Ranks: 16, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	ht, err := hashtable.Run(hashtable.Config{Machine: pm, Transport: comm.TwoSided, Ranks: 16, TotalInserts: 1600, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	dots := []core.Dot{
		mTwo.Place("stencil", st.Comm),
		mTwo.Place("sptrsv", sp.Comm),
		mTwo.Place("hashtable", ht.Comm),
	}
	sizes := core.DefaultSizes()
	chart := mTwo.Chart([]int{1, 4, 100, 10000}, sizes, dots)
	var b strings.Builder
	b.WriteString(chart.Render())
	t := table.New("Workload bounds on the Message Roofline (Perlmutter CPU, two-sided)",
		"Workload", "mean B", "msg/sync", "achieved GB/s", "tight bound GB/s", "flood bound GB/s", "efficiency")
	for _, d := range dots {
		t.AddRow(d.Name, fmt.Sprintf("%.0f", d.Bytes), fmt.Sprintf("%.1f", d.MsgsPerSync),
			fmt.Sprintf("%.3f", d.GBs), fmt.Sprintf("%.3f", d.BoundGBs),
			fmt.Sprintf("%.3f", d.FloodBoundGBs), fmt.Sprintf("%.2f", d.Efficiency()))
	}
	b.WriteString("\n")
	b.WriteString(t.Render())
	oneMsg := mOne.Params.SweepTime(1, 400)
	twoMsg := mTwo.Params.SweepTime(1, 400)
	return &Output{ID: "fig6", Title: "Workload communication bounds", Text: b.String(),
		Series: chart.Series,
		Notes: []string{
			fmt.Sprintf("One small message per sync: two-sided %.1f us vs one-sided %.1f us (paper Fig 6b: 3.3 vs 5 us)", twoMsg.Microseconds(), oneMsg.Microseconds()),
			"The msg/sync ceiling is far tighter than the flood bound for the 1-msg/sync SpTRSV (the paper's core argument).",
		}}, nil
}

// Fig7 compares the amortized per-message latency each workload sees
// at its (msg/sync, message size) coordinate on the GPU Message
// Roofline: more messages per synchronization hide more latency, so
// the hashtable (1e6 msg/sync) pays the least and SpTRSV (1 msg/sync)
// the most.
func Fig7(env *Env) (*Output, error) {
	pg := machine.PerlmutterGPU
	model, err := core.ForMachine(pg, machine.GPUShmem, 4, 0, 1)
	if err != nil {
		return nil, err
	}
	// Message sizes come from traced workload runs.
	pm := machine.PerlmutterCPU
	grid, iters, _ := stencilScale(Quick)
	st, err := stencil.Run(stencil.Config{Machine: pm, Transport: comm.TwoSided, Grid: grid, Iters: iters, PX: 4, PY: 4, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	mat, _, err := matrixFor(Quick)
	if err != nil {
		return nil, err
	}
	sp, err := sptrsv.Run(sptrsv.Config{Machine: pm, Transport: comm.TwoSided, Matrix: mat, Ranks: 16, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	type row struct {
		name  string
		n     int
		bytes int64
	}
	rows := []row{
		{"hashtable (1e6 msg/sync, 1-word CAS)", 1000000, 8},
		{"stencil (4 msg/sync, halo)", 4, int64(st.Comm.MeanBytes)},
		{"sptrsv (1 msg/sync, contribution)", 1, int64(sp.Comm.MeanBytes)},
	}
	t := table.New("Fig 7 — amortized GPU message latency at each workload's msg/sync",
		"Workload", "msg/sync", "bytes/msg", "latency/msg (us)")
	ser := plot.Series{Name: "amortized latency (us)"}
	lats := make([]float64, len(rows))
	for i, r := range rows {
		lat := model.Params.MsgLatency(r.n, r.bytes)
		lats[i] = lat.Microseconds()
		t.AddRow(r.name, fmt.Sprint(r.n), fmt.Sprint(r.bytes), usStr(lat))
		ser.X = append(ser.X, float64(r.n))
		ser.Y = append(ser.Y, lats[i])
	}
	notes := []string{"Paper Fig 7: hashtable (1e6 msg/sync) has the smallest latency, SpTRSV (1 msg/sync) the largest."}
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		notes = append(notes, "WARNING: ordering deviates from the paper")
	}
	return &Output{ID: "fig7", Title: "Latency vs msg/sync", Text: t.Render(), Series: []plot.Series{ser}, Notes: notes}, nil
}

// Fig8 reproduces SpTRSV scaling on CPUs and GPUs.
func Fig8(env *Env) (*Output, error) {
	mat, matNote, err := matrixFor(env.Scale)
	if err != nil {
		return nil, err
	}
	cpuRanks, smRanks := []int{1, 2, 4, 8, 16, 32}, []int{1, 8, 32, 42}
	if env.Scale == Quick {
		cpuRanks, smRanks = []int{1, 4, 16}, []int{1, 16, 42}
	}
	run := func(m *machine.Config, tr comm.Kind, p int) (sim.Time, []string, error) {
		r, err := sptrsv.Run(sptrsv.Config{Machine: m, Transport: tr, Matrix: mat, Ranks: p, Shards: env.Shards})
		if err != nil {
			return 0, nil, err
		}
		return r.Elapsed, nil, nil
	}
	t := table.New("Fig 8 — SpTRSV solve time", "Platform", "Variant", "Ranks", "Time (ms)")
	series, err := scaling(t,
		scalingGroup{cpuRanks, []scalingLine{
			{machine.PerlmutterCPU, comm.TwoSided, "two-sided", "two-sided", run},
			{machine.PerlmutterCPU, comm.OneSided, "one-sided", "one-sided", run},
		}},
		scalingGroup{smRanks, []scalingLine{{machine.SummitCPU, comm.TwoSided, "two-sided", "two-sided", run}}},
		scalingGroup{[]int{1, 2, 4}, []scalingLine{{machine.PerlmutterGPU, comm.Shmem, "nvshmem", "nvshmem", run}}},
		scalingGroup{[]int{1, 2, 4, 6}, []scalingLine{{machine.SummitGPU, comm.Shmem, "nvshmem", "nvshmem", run}}},
	)
	if err != nil {
		return nil, err
	}
	chart := plot.Chart{Title: "Fig 8 — SpTRSV scaling", XLabel: "ranks/GPUs", YLabel: "time (ms)", XLog: true, YLog: true, Series: series}
	pgLast := series[3].Y[len(series[3].Y)-1]
	sgLast := series[4].Y[len(series[4].Y)-2] // both at 4 GPUs
	notes := []string{
		matNote,
		"One-sided SpTRSV is slower than two-sided on CPUs (4 MPI ops + receiver polling, §III-B).",
		fmt.Sprintf("At 4 GPUs: Summit/Perlmutter time ratio %.2fx (paper: 3.7x; our simulated gap is smaller — see EXPERIMENTS.md)", sgLast/pgLast),
	}
	return &Output{ID: "fig8", Title: "SpTRSV scaling", Text: t.Render() + "\n" + chart.Render(), Series: series, Notes: notes}, nil
}

// Fig9 reproduces the distributed hashtable comparison.
func Fig9(env *Env) (*Output, error) {
	inserts, gpuInserts := 20000, 20000
	cpuRanks := []int{2, 8, 32, 128}
	if env.Scale == Quick {
		inserts, gpuInserts = 2048, 2400
		cpuRanks = []int{2, 16, 64}
	}
	runWith := func(inserts int) func(*machine.Config, comm.Kind, int) (sim.Time, []string, error) {
		return func(m *machine.Config, tr comm.Kind, p int) (sim.Time, []string, error) {
			r, err := hashtable.Run(hashtable.Config{Machine: m, Transport: tr, Ranks: p, TotalInserts: inserts, Shards: env.Shards})
			if err != nil {
				return 0, nil, err
			}
			return r.Elapsed, []string{fmt.Sprintf("%.0f", r.UpdatesPerSec)}, nil
		}
	}
	cpu, gpu := runWith(inserts), runWith(gpuInserts)
	t := table.New("Fig 9 — distributed hashtable", "Platform", "Variant", "Ranks", "Time (ms)", "updates/s")
	series, err := scaling(t,
		scalingGroup{cpuRanks, []scalingLine{
			{machine.PerlmutterCPU, comm.TwoSided, "two-sided", "two-sided", cpu},
			{machine.PerlmutterCPU, comm.OneSided, "one-sided", "one-sided", cpu},
		}},
		scalingGroup{[]int{1, 2, 4}, []scalingLine{{machine.PerlmutterGPU, comm.Shmem, "nvshmem CAS", "nvshmem", gpu}}},
		scalingGroup{[]int{1, 2, 3, 4, 6}, []scalingLine{{machine.SummitGPU, comm.Shmem, "nvshmem CAS", "nvshmem", gpu}}},
	)
	if err != nil {
		return nil, err
	}
	two, one := series[0], series[1]
	var crossNote string
	if i := slices.Index(two.X, 2); i >= 0 && two.Y[i] < one.Y[i] {
		crossNote = "At P=2 two-sided wins (paper: 1.1 us vs a 2 us CAS); "
	}
	ratio := two.Y[len(two.Y)-1] / one.Y[len(one.Y)-1]
	chart := plot.Chart{Title: "Fig 9 — hashtable scaling", XLabel: "ranks/GPUs", YLabel: "time (ms)", XLog: true, YLog: true, Series: series}
	notes := []string{
		fmt.Sprintf("%sat P=%d one-sided is %.1fx faster (paper: 5x at 128).", crossNote, cpuRanks[len(cpuRanks)-1], ratio),
		"Summit GPU stops scaling past 3 GPUs: cross-socket atomics pay 1.6 us and saturate the X-Bus (Fig 9 observation).",
		fmt.Sprintf("Total inserts scaled to %d (paper: 1e6) to keep the two-sided broadcast protocol's P*inserts message count simulable; rates are intensive and unaffected.", inserts),
	}
	return &Output{ID: "fig9", Title: "Distributed hashtable", Text: t.Render() + "\n" + chart.Render(), Series: series, Notes: notes}, nil
}
