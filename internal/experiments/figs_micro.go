package experiments

import (
	"fmt"
	"strings"

	"msgroofline/internal/bench"
	"msgroofline/internal/core"
	"msgroofline/internal/machine"
	"msgroofline/internal/plot"
	"msgroofline/internal/table"
)

// TableI renders the evaluation-platform inventory.
func TableI() (*Output, error) {
	t := table.New("Evaluation Platforms",
		"Machine", "GPUs/node", "GPU interconnect", "GPU runtime",
		"GPU-CPU", "CPUs", "CPU interconnect", "CPU runtime", "CPU-NIC")
	for _, c := range machine.All() {
		r := c.TableRow
		t.AddRow(c.Title, r.GPUsPerNode, r.GPUInterconnect, r.GPURuntime,
			r.GPUCPULink, r.CPUs, r.CPUInterconnect, r.CPURuntime, r.CPUNICLink)
	}
	return &Output{
		ID:    "tableI",
		Title: "Evaluation platforms",
		Text:  t.Render(),
		Notes: []string{"All platforms are simulated; link peaks and latencies are calibrated from Table I / §II of the paper (see internal/machine/params.go)."},
	}, nil
}

// Fig2 describes the node architectures encoded in the catalog.
func Fig2() (*Output, error) {
	var b strings.Builder
	descr := []struct{ name, text string }{
		{"perlmutter-cpu", "two Milan sockets, Infinity Fabric 32 GB/s/dir x4 channels; NIC on socket 0 via PCIe4"},
		{"frontier-cpu", "one 64-core socket as four NUMA quadrants, fully connected Infinity Fabric 36 GB/s/dir"},
		{"summit-cpu", "two POWER9 sockets, X-Bus (64 GB/s theoretical, ~26 achievable) x2 channels"},
		{"summit-gpu", "dual-island dumbbell: 3 V100 per island fully connected NVLink2 (2x25 GB/s per pair); islands joined GPU-CPU-XBus-CPU-GPU"},
		{"perlmutter-gpu", "four A100 fully connected NVLink3, 4x25 GB/s port channels per pair (100 GB/s/dir)"},
	}
	t := table.New("Node architectures (Fig 2)", "Machine", "Topology", "Hops g0->gN/cross", "Peak/pair GB/s", "Aggregate GB/s")
	for _, d := range descr {
		cfg, err := getMachine(d.name)
		if err != nil {
			return nil, err
		}
		in, err := cfg.Instantiate(cfg.MaxRanks)
		if err != nil {
			return nil, err
		}
		r, err := in.Net.RouteTo(in.Places[0].Node, in.Places[cfg.MaxRanks-1].Node)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.Title, d.text,
			fmt.Sprint(r.Hops()),
			fmt.Sprintf("%.0f", r.PeakBandwidth()/1e9),
			fmt.Sprintf("%.0f", r.AggregateBandwidth()/1e9))
	}
	t.RenderTo(&b)
	return &Output{ID: "fig2", Title: "Node architectures", Text: b.String()}, nil
}

func sweepDims(s Scale) ([]int, []int64) {
	if s == Full {
		return []int{1, 4, 16, 64, 256, 1024, 4096}, bench.DefaultSizes()
	}
	return []int{1, 16, 256}, []int64{8, 512, 32768, 1 << 20}
}

// Fig1 builds the Message Roofline overview on Frontier: the measured
// put sweep, the fitted latency-ceiling family, and the sharp vs
// rounded bounds.
func Fig1(env *Env) (*Output, error) {
	s := env.Scale
	cfg, err := getMachine("frontier-cpu")
	if err != nil {
		return nil, err
	}
	ns, sizes := sweepDims(s)
	res, err := bench.Sweep(cfg, bench.Spec{Transport: bench.OneSided, Ns: ns, Sizes: sizes, Shards: env.Shards})
	if err != nil {
		return nil, err
	}
	tp, _ := cfg.Params(machine.OneSided)
	m, err := core.Fit("frontier-cpu one-sided (fitted)", res.Samples(), tp.OpsPerMsg, tp.Gap, cfg.TheoreticalGBs)
	if err != nil {
		return nil, err
	}
	chart := plot.Chart{
		Title:  "Fig 1 — Message Roofline overview, Frontier CPU (one-sided put)",
		XLabel: "message size (bytes)", YLabel: "GB/s", XLog: true, YLog: true,
	}
	var series []plot.Series
	for _, n := range ns {
		cs := m.CeilingSeries(n, sizes)
		cs.Name = fmt.Sprintf("ceiling %d msg/sync", n)
		series = append(series, cs)
	}
	series = append(series, m.SharpSeries(sizes), m.RoundedSeries(sizes))
	series = append(series, res.Series()...)
	chart.Series = series
	gain := m.OverlapGain(64, 100)
	return &Output{
		ID:     "fig1",
		Title:  "Message Roofline overview on Frontier",
		Text:   chart.Render(),
		Series: series,
		Notes: []string{
			fmt.Sprintf("Fitted LogGP: %v (RMS rel. err %.2f)", m.Params, core.FitError(m.Params, res.Samples())),
			fmt.Sprintf("Overlap gain at 64 B going 1 -> 100 msg/sync: %.1fx (paper: ~10x when L >> G)", gain),
			fmt.Sprintf("36 GB/s Infinity Fabric ceiling; measured peak %.1f GB/s", res.MaxGBs()),
		},
	}, nil
}

// Fig3 measures two-sided vs one-sided MPI bandwidth on the three CPU
// platforms.
func Fig3(env *Env) (*Output, error) {
	ns, sizes := sweepDims(env.Scale)
	var b strings.Builder
	var all []plot.Series
	var notes []string
	for _, name := range []string{"perlmutter-cpu", "frontier-cpu", "summit-cpu"} {
		cfg, err := getMachine(name)
		if err != nil {
			return nil, err
		}
		two, err := bench.Sweep(cfg, bench.Spec{Transport: bench.TwoSided, Ns: ns, Sizes: sizes, Shards: env.Shards})
		if err != nil {
			return nil, err
		}
		one, err := bench.Sweep(cfg, bench.Spec{Transport: bench.OneSided, Ns: ns, Sizes: sizes, Shards: env.Shards})
		if err != nil {
			return nil, err
		}
		chart := plot.Chart{
			Title:  fmt.Sprintf("Fig 3 — %s: sustained bandwidth (ceiling %.0f GB/s theoretical)", cfg.Title, cfg.TheoreticalGBs),
			XLabel: "message size (bytes)", YLabel: "GB/s", XLog: true, YLog: true,
		}
		for _, ser := range two.Series() {
			ser.Name = name + " " + ser.Name
			chart.Add(ser)
			all = append(all, ser)
		}
		for _, ser := range one.Series() {
			ser.Name = name + " " + ser.Name
			chart.Add(ser)
			all = append(all, ser)
		}
		b.WriteString(chart.Render())
		b.WriteString("\n")

		nHi := ns[len(ns)-1]
		bSmall := sizes[0]
		p2, _ := two.At(nHi, bSmall)
		p1, _ := one.At(nHi, bSmall)
		switch name {
		case "summit-cpu":
			notes = append(notes, fmt.Sprintf("%s: Spectrum one-sided stays below two-sided at every point (paper Fig 3c); at n=%d, B=%d: %.3f vs %.3f GB/s",
				cfg.Title, nHi, bSmall, p1.GBs, p2.GBs))
		default:
			notes = append(notes, fmt.Sprintf("%s: one-sided overtakes two-sided at high msg/sync (paper Fig 3a/b); at n=%d, B=%d: %.3f vs %.3f GB/s",
				cfg.Title, nHi, bSmall, p1.GBs, p2.GBs))
		}
	}
	return &Output{ID: "fig3", Title: "Two-sided vs one-sided MPI on CPUs", Text: b.String(), Series: all, Notes: notes}, nil
}

// Fig4 measures GPU-initiated put-with-signal sweeps and atomic CAS
// latencies on both GPU machines.
func Fig4(env *Env) (*Output, error) {
	ns, sizes := sweepDims(env.Scale)
	var b strings.Builder
	var all []plot.Series
	var notes []string
	for _, name := range []string{"perlmutter-gpu", "summit-gpu"} {
		cfg, err := getMachine(name)
		if err != nil {
			return nil, err
		}
		res, err := bench.Sweep(cfg, bench.Spec{Transport: bench.ShmemPutSignal, Ns: ns, Sizes: sizes, Shards: env.Shards})
		if err != nil {
			return nil, err
		}
		chart := plot.Chart{
			Title:  fmt.Sprintf("Fig 4 — %s: NVSHMEM put-with-signal", cfg.Title),
			XLabel: "message size (bytes)", YLabel: "GB/s", XLog: true, YLog: true,
		}
		for _, ser := range res.Series() {
			ser.Name = name + " " + ser.Name
			chart.Add(ser)
			all = append(all, ser)
		}
		b.WriteString(chart.Render())
		b.WriteString("\n")
		p1, _ := res.At(ns[0], sizes[0])
		notes = append(notes, fmt.Sprintf("%s: single put-with-signal latency %s us (paper: ~4 us Perlmutter, ~5 us Summit)",
			cfg.Title, usStr(p1.Elapsed)))
	}
	// CAS latencies (§III-C).
	t := table.New("GPU atomic compare-and-swap latency", "Machine", "Pair", "us/CAS", "Paper")
	pmGPU, err := getMachine("perlmutter-gpu")
	if err != nil {
		return nil, err
	}
	pg, err := bench.CASLatency(pmGPU, 4, 1, 32)
	if err != nil {
		return nil, err
	}
	t.AddRow("Perlmutter GPU", "g0->g1", usStr(pg), "0.8")
	smGPU, err := getMachine("summit-gpu")
	if err != nil {
		return nil, err
	}
	in, err := bench.CASLatency(smGPU, 6, 1, 32)
	if err != nil {
		return nil, err
	}
	t.AddRow("Summit GPU", "g0->g1 (in island)", usStr(in), "1.0")
	cross, err := bench.CASLatency(smGPU, 6, 3, 32)
	if err != nil {
		return nil, err
	}
	t.AddRow("Summit GPU", "g0->g3 (cross socket)", usStr(cross), "1.6")
	pmCPU, err := getMachine("perlmutter-cpu")
	if err != nil {
		return nil, err
	}
	cpu, err := bench.OneSidedCASLatency(pmCPU, 2, 1, 32)
	if err != nil {
		return nil, err
	}
	t.AddRow("Perlmutter CPU", "rank0->rank1 (one-sided MPI)", usStr(cpu), "2.0")
	b.WriteString(t.Render())
	return &Output{ID: "fig4", Title: "GPU put-with-signal and CAS", Text: b.String(), Series: all, Notes: notes}, nil
}

// Fig10 measures the message-splitting speedup on Perlmutter GPU.
func Fig10(env *Env) (*Output, error) {
	var volumes []int64
	hi := int64(4 << 20)
	if env.Scale == Quick {
		hi = 1 << 20
	}
	for v := int64(1 << 10); v <= hi; v *= 2 {
		volumes = append(volumes, v)
	}
	cfg, err := getMachine("perlmutter-gpu")
	if err != nil {
		return nil, err
	}
	pts, err := bench.SweepSplit(cfg, 4, volumes)
	if err != nil {
		return nil, err
	}
	meas := plot.Series{Name: "measured 4-way split speedup"}
	t := table.New("Fig 10 — splitting one message into four (Perlmutter GPU)",
		"volume (B)", "whole (us)", "split (us)", "speedup")
	var crossover int64
	best := 0.0
	for _, p := range pts {
		meas.X = append(meas.X, float64(p.Volume))
		meas.Y = append(meas.Y, p.Speedup)
		t.AddRow(fmt.Sprint(p.Volume), usStr(p.Whole), usStr(p.Split), fmt.Sprintf("%.2f", p.Speedup))
		if crossover == 0 && p.Speedup >= 1.5 {
			crossover = p.Volume
		}
		if p.Speedup > best {
			best = p.Speedup
		}
	}
	m, err := core.ForMachine(cfg, machine.GPUShmem, 4, 0, 1)
	if err != nil {
		return nil, err
	}
	model := m.SplitSeries(4, volumes)
	chart := plot.Chart{
		Title:  "Fig 10 — split speedup vs message volume",
		XLabel: "message volume (bytes)", YLabel: "speedup (x)", XLog: true,
		Series: []plot.Series{meas, model},
	}
	return &Output{
		ID:     "fig10",
		Title:  "Message splitting on Perlmutter GPU",
		Text:   t.Render() + "\n" + chart.Render(),
		Series: []plot.Series{meas, model},
		Notes: []string{
			fmt.Sprintf("Peak measured speedup %.2fx (paper: up to 2.9x)", best),
			fmt.Sprintf("Splitting starts paying off (>=1.5x) at %d B (paper: >=131 KB worthwhile)", crossover),
		},
	}, nil
}
