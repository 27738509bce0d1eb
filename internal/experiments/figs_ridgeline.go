package experiments

import (
	"fmt"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/plot"
	"msgroofline/internal/ridgeline"
	"msgroofline/internal/sim"
	"msgroofline/internal/stencil"
	"msgroofline/internal/table"
)

// Per-rank compute and DRAM ceilings used by every Ridgeline surface
// in this experiment: one Milan-class core lane (flop/s) and its DRAM
// stream share (bytes/s). The topology only enters through the network
// ceiling, so fixing these isolates the who-wins question.
const (
	rlPeakFlops = 5e10
	rlMemBW     = 2e10
)

// rlKernels places representative workload points on the intensity
// plane: flops per DRAM byte (ai), flops per network byte (ci), and
// the operating message size that sets the LogGP-effective bandwidth.
func rlKernels() []ridgeline.Kernel {
	return []ridgeline.Kernel{
		// 5-point Jacobi, 512x512 interior per rank: 5 flops / 40
		// DRAM bytes, 4 halo rows of 4 KB per 512^2 x 5 flops.
		{Name: "stencil halo", AI: 0.25, CI: 80, MsgBytes: 4096},
		// Supernodal triangular sweep: short dependency messages.
		{Name: "SpTRSV sweep", AI: 0.17, CI: 8, MsgBytes: 512},
		// GUPS-style hashtable updates: one tiny message per flop-ish.
		{Name: "GUPS update", AI: 0.125, CI: 1, MsgBytes: 16},
	}
}

// ExtRidgeline renders the 2D distributed roofline: per-kernel
// classification on the generated catalog fabrics, the who-wins map of
// dragonfly vs fat-tree families from 1K to 100K ranks, a sharded
// simulated stencil cross-check of the analytic network ceiling, and
// a minimal-vs-adaptive routing micro-run on the tapered dragonfly.
func ExtRidgeline(env *Env) (*Output, error) {
	tp, err := crayOneSided()
	if err != nil {
		return nil, err
	}

	// 1. Classification: which ceiling binds each kernel on each
	// generated fabric at its own message size.
	class := table.New("Ridgeline classification (one-sided, per rank: peak 50 Gflop/s, DRAM 20 GB/s)",
		"Kernel", "Machine", "net GB/s", "bound", "Gflop/s", "crossover ci")
	var series []plot.Series
	for _, cfg := range []*machine.Config{machine.Dragonfly1K, machine.FatTree1K, machine.Dragonfly10K} {
		m, err := cfg.Topology.Metrics()
		if err != nil {
			return nil, err
		}
		ser := plot.Series{Name: cfg.Name + " ridgeline"}
		for _, k := range rlKernels() {
			s := ridgeline.SurfaceFor(cfg.Name, tp, m, k.MsgBytes, rlPeakFlops, rlMemBW)
			if err := s.Validate(); err != nil {
				return nil, err
			}
			perf, bound := s.Bound(k.AI, k.CI)
			class.AddRow(k.Name, cfg.Name,
				fmt.Sprintf("%.3f", s.NetBW/1e9), bound.String(),
				fmt.Sprintf("%.2f", perf/1e9),
				fmt.Sprintf("%.1f", s.NetworkCrossoverCI(k.AI)))
			ser.X = append(ser.X, k.CI)
			ser.Y = append(ser.Y, perf)
		}
		series = append(series, ser)
	}

	// 2. Who-wins map: the balanced-dragonfly and fat-tree families
	// sized for 1K-100K ranks, evaluated analytically (Metrics never
	// instantiates the fabric, so 100K ranks costs nothing).
	wins := table.New("Who wins vs scale (per-rank network ceiling, GB/s)",
		"Ranks", "msg", "dragonfly", "fat-tree", "fat-tree adv", "stencil df/ft", "GUPS df/ft")
	stencilK, gupsK := rlKernels()[0], rlKernels()[2]
	for _, ranks := range []int{1024, 10240, 102400} {
		df := machine.DragonflyForRanks(ranks)
		ft := machine.FatTreeForRanks(ranks)
		dm, err := df.Metrics()
		if err != nil {
			return nil, err
		}
		fm, err := ft.Metrics()
		if err != nil {
			return nil, err
		}
		for _, msg := range []int64{256, 4096, 65536} {
			sDf := ridgeline.SurfaceFor("df", tp, dm, msg, rlPeakFlops, rlMemBW)
			sFt := ridgeline.SurfaceFor("ft", tp, fm, msg, rlPeakFlops, rlMemBW)
			wins.AddRow(fmt.Sprint(ranks), fmt.Sprint(msg),
				fmt.Sprintf("%.3f", sDf.NetBW/1e9),
				fmt.Sprintf("%.3f", sFt.NetBW/1e9),
				fmt.Sprintf("%.2fx", sFt.NetBW/sDf.NetBW),
				sDf.Classify(stencilK.AI, stencilK.CI).String()+"/"+sFt.Classify(stencilK.AI, stencilK.CI).String(),
				sDf.Classify(gupsK.AI, gupsK.CI).String()+"/"+sFt.Classify(gupsK.AI, gupsK.CI).String())
		}
	}

	// 3. Simulated cross-check: the sharded stencil on both generated
	// 1K-rank fabrics. The analytic network ceiling must dominate the
	// simulated sustained per-rank bandwidth at the halo message size.
	grid := 1024
	if env.Scale == Full {
		grid = 4096
	}
	check := table.New("Simulated cross-check — 2D stencil, 1024 ranks (32x32), one-sided",
		"Machine", "elapsed", "halo B", "per-rank GB/s", "ceiling GB/s", "used")
	var fabrics [2]rlFabric
	for i, cfg := range []*machine.Config{machine.Dragonfly1K, machine.FatTree1K} {
		r, err := stencil.Run(stencil.Config{
			Machine: cfg, Transport: comm.OneSided,
			Grid: grid, PX: 32, PY: 32, Iters: 2, Shards: env.Shards,
		})
		if err != nil {
			return nil, err
		}
		m, err := cfg.Topology.Metrics()
		if err != nil {
			return nil, err
		}
		halo := int64(8 * grid / 32)
		ceiling := ridgeline.NetBWPerRank(tp, m, halo)
		perRank := float64(r.Comm.TotalBytes) / float64(r.Ranks) / r.Elapsed.Seconds()
		if perRank > ceiling {
			return nil, fmt.Errorf("ext-ridgeline: %s sustained %.3g B/s exceeds analytic ceiling %.3g B/s", cfg.Name, perRank, ceiling)
		}
		fabrics[i] = rlFabric{cfg.Name, r.Elapsed, m.MaxWireLatencyNs}
		check.AddRow(cfg.Name, usStr(r.Elapsed)+" us", fmt.Sprint(halo),
			fmt.Sprintf("%.4f", perRank/1e9), fmt.Sprintf("%.3f", ceiling/1e9),
			fmt.Sprintf("%.1f%%", 100*perRank/ceiling))
	}

	// 4. Routing micro-run: uniform cross-fabric bursts driven through
	// the Route layer on the tapered dragonfly — adaptive (UGAL-lite)
	// vs a minimal-routing copy — and on the full-bisection fat-tree.
	routing, note, err := rlRoutingMicro()
	if err != nil {
		return nil, err
	}

	return &Output{
		ID:     "ext-ridgeline",
		Title:  "The Ridgeline: 2D distributed roofline over (ai, ci)",
		Text:   class.Render() + "\n" + wins.Render() + "\n" + check.Render() + "\n" + routing.Render(),
		Series: series,
		Notes: []string{
			"Perf(ai, ci) = min(peak, ai*MemBW, ci*NetBW) per rank; NetBW is the LogGP rounded bandwidth at the kernel's message size capped by the rank's uniform-traffic share of the limiting tier.",
			"The fat-tree advantage grows with scale: the balanced dragonfly's global tier is shared by quadratically more cross-group pairs, so GUPS-class kernels stay network-bound everywhere while stencil-class kernels stay memory-bound.",
			rlOrderNote(fabrics),
			note,
		},
	}, nil
}

// rlFabric is one fabric of the simulated cross-check: its simulated
// stencil time and the longest wire latency of its topology.
type rlFabric struct {
	name      string
	elapsed   sim.Time
	latencyNs float64
}

// rlOrderNote states the cross-check's outcome. The two fabrics'
// simulated stencil times should rank them as their per-link latencies
// do; when they do not, the note is a WARNING.
func rlOrderNote(f [2]rlFabric) string {
	const ceiling = "Simulated stencil sustains well under the analytic ceiling on both fabrics (nearest-neighbor halos barely touch the global tier)"
	if (f[0].elapsed < f[1].elapsed) == (f[0].latencyNs < f[1].latencyNs) {
		return fmt.Sprintf("%s, and the %s/%s elapsed ordering matches the per-link latency ordering.", ceiling, f[0].name, f[1].name)
	}
	return fmt.Sprintf("%s. WARNING: the %s/%s elapsed ordering (%s vs %s us) deviates from the per-link latency ordering (%.0f vs %.0f ns).",
		ceiling, f[0].name, f[1].name, usStr(f[0].elapsed), usStr(f[1].elapsed), f[0].latencyNs, f[1].latencyNs)
}

// crayOneSided resolves the one-sided Cray MPI parameter set the
// generated catalog machines share.
func crayOneSided() (machine.TransportParams, error) {
	tp, ok := machine.Dragonfly1K.Params(machine.OneSided)
	if !ok {
		return machine.TransportParams{}, fmt.Errorf("ext-ridgeline: dragonfly-1k lacks one-sided parameters")
	}
	return tp, nil
}

// rlRoutingMicro drives deterministic uniform cross-fabric bursts
// through netsim's Route layer on three fabrics: the dragonfly-1k
// catalog entry (adaptive), a minimal-routing copy of it, and the
// fat-tree. It reports achieved aggregate bandwidth, the adaptive
// pick split, and the mean utilization of the bisection-limiting tier.
func rlRoutingMicro() (*table.Table, string, error) {
	// A value copy with the routing policy flipped: the specs inside
	// Topology are read-only, so sharing their pointers is safe.
	dfMinCfg := *machine.Dragonfly1K
	dfMinCfg.Name = "dragonfly-1k-minimal"
	dfMinCfg.Topology.Routing = machine.RoutingMinimal
	const (
		msgBytes = 64 << 10
		rounds   = 4
		stride   = 16
	)
	t := table.New("Routing micro-run — 64 KB uniform cross-fabric bursts, 64 pairs x 4 rounds",
		"Fabric", "policy", "achieved GB/s", "min/alt picks", "limit tier util")
	var adAgg, minAgg, ftAgg float64
	var altPicks int64
	for _, c := range []struct {
		cfg    *machine.Config
		label  string
		tier   string
		out    *float64
		tallyA bool
	}{
		{machine.Dragonfly1K, "adaptive", "global", &adAgg, true},
		{&dfMinCfg, "minimal", "global", &minAgg, false},
		{machine.FatTree1K, "minimal", "core", &ftAgg, false},
	} {
		inst, err := c.cfg.Instantiate(c.cfg.MaxRanks)
		if err != nil {
			return nil, "", err
		}
		ranks := c.cfg.MaxRanks
		// Every stride-th rank sends to its antipode: cross-group on
		// the dragonfly, cross-pod on the fat-tree.
		var done sim.Time
		var moved int64
		for r := 0; r < ranks; r += stride {
			src := inst.Places[r].Node
			dst := inst.Places[(r+ranks/2)%ranks].Node
			rt, err := inst.Net.RouteTo(src, dst)
			if err != nil {
				return nil, "", err
			}
			var at sim.Time
			for i := 0; i < rounds; i++ {
				at = rt.Transfer(at, msgBytes, 0)
				moved += msgBytes
			}
			if at > done {
				done = at
			}
		}
		agg := float64(moved) / done.Seconds() / 1e9
		*c.out = agg
		min, alt := inst.Net.RoutingStats()
		if c.tallyA {
			altPicks = alt
		}
		util := "-"
		for _, cs := range inst.Net.ClassStatsAll() {
			if cs.Class == c.tier {
				util = fmt.Sprintf("%.1f%% (%s)", 100*cs.MeanUtilization(done), c.tier)
			}
		}
		t.AddRow(c.cfg.Title, c.label, fmt.Sprintf("%.2f", agg),
			fmt.Sprintf("%d/%d", min, alt), util)
	}
	if adAgg < minAgg {
		return nil, "", fmt.Errorf("ext-ridgeline: adaptive routing (%.2f GB/s) lost to minimal (%.2f GB/s) under congestion", adAgg, minAgg)
	}
	if ftAgg < adAgg {
		return nil, "", fmt.Errorf("ext-ridgeline: tapered dragonfly (%.2f GB/s) beat the full-bisection fat-tree (%.2f GB/s)", adAgg, ftAgg)
	}
	note := fmt.Sprintf("Under uniform cross-group bursts UGAL-lite diverted %d messages to Valiant legs, recovering %.1f%% over minimal routing on the same wires; the fat-tree's full bisection still wins, matching the analytic who-wins map.",
		altPicks, 100*(adAgg/minAgg-1))
	return t, note, nil
}
