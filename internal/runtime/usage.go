package runtime

import (
	"sync"
	"time"

	"msgroofline/internal/sim"
)

// Process-wide shard-utilization tally. Every completed World.Run
// folds its engine's execution summary in here, so a command can end
// with one stderr line proving the grouped path ran (see
// cliflags.ReportShards). It never feeds back into simulation state,
// and concurrent worlds take its mutex once each.

// UsageSummary aggregates coupled-engine execution across every
// world the process has run.
type UsageSummary struct {
	// Worlds counts completed World.Run calls, Grouped those whose
	// fabric made more than one node group (the window protocol).
	Worlds, Grouped int
	// Windows is the total conservative windows executed.
	Windows uint64
	// Events sums executed events by node-group index (ragged: index 0
	// aggregates every world's first group, and so on).
	Events []int64
	// MaxGroups is the largest node-group count of any one world, and
	// Imbalance the worst per-world ratio of the busiest group's
	// executed events to the world's mean per group (1 = even).
	MaxGroups int
	Imbalance float64
	// MaxWorkers is the largest window worker parallelism used.
	MaxWorkers int
	// Busy is the worlds' summed busy time inside windows; over a
	// command's wall time it is the parallel efficiency (see
	// sim.CoupledEngine.BusyWall).
	Busy time.Duration
	// ExecWall, BarrierWall and ScanWall split the window loops' wall
	// time into group execution, barrier deferred-op application and
	// window-bound maintenance (min-tree reads plus active-set
	// collection): the engine layer of a Breaking-Band-style cost
	// breakdown (see sim.CoupledEngine.PhaseWall).
	ExecWall, BarrierWall, ScanWall time.Duration
	// Resumes counts the switches into rank processes' bodies (see
	// sim.CoupledEngine.Resumes); like Events, it does not depend on
	// the worker count.
	Resumes uint64
	// Deliveries counts the events barrier ops scheduled on node
	// groups (see sim.CoupledEngine.Deliveries).
	Deliveries uint64
	// Pool sums the worlds' pooled-window counts: windows opened to
	// the window pool and those that woke its helpers, both fixed by
	// the worlds and their worker counts, and those a helper joined,
	// with the joins' summed delay, which follow host timing (see
	// sim.CoupledEngine.Pool).
	Pool sim.PoolStats
}

var (
	usageMu sync.Mutex
	usage   UsageSummary
)

// noteUsage folds one finished world into the process tally.
func noteUsage(w *World) {
	groups := w.Groups()
	usageMu.Lock()
	defer usageMu.Unlock()
	usage.Worlds++
	if groups > 1 {
		usage.Grouped++
	}
	usage.Windows += w.Windows()
	usage.Resumes += w.eng.Resumes()
	usage.Busy += w.eng.Busy()
	for len(usage.Events) < groups {
		usage.Events = append(usage.Events, 0)
	}
	var total, busiest int64
	for g := range groups {
		n := int64(w.eng.Sub(g).Executed())
		usage.Events[g] += n
		total += n
		busiest = max(busiest, n)
	}
	usage.MaxGroups = max(usage.MaxGroups, groups)
	if total > 0 {
		usage.Imbalance = max(usage.Imbalance, float64(busiest)*float64(groups)/float64(total))
	}
	if w.eng.Workers() > usage.MaxWorkers {
		usage.MaxWorkers = w.eng.Workers()
	}
	exec, barrier, scan := w.eng.PhaseWall()
	usage.ExecWall += exec
	usage.BarrierWall += barrier
	usage.ScanWall += scan
	usage.Deliveries += w.eng.Deliveries()
	p := w.eng.Pool()
	usage.Pool.Pooled += p.Pooled
	usage.Pool.Woken += p.Woken
	usage.Pool.Joined += p.Joined
	usage.Pool.Joins += p.Joins
	usage.Pool.JoinWait += p.JoinWait
}

// Usage returns a copy of the process-wide shard-utilization tally.
func Usage() UsageSummary {
	usageMu.Lock()
	defer usageMu.Unlock()
	u := usage
	u.Events = append([]int64(nil), usage.Events...)
	return u
}
