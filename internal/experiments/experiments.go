// Package experiments regenerates every table and figure of the
// paper's evaluation from the simulated stack. Each experiment
// returns an Output carrying rendered text (tables / ASCII charts),
// the raw series for CSV export, and paper-vs-measured notes; the
// cmd/experiments binary and the repository's benchmark suite both
// drive these entry points (see DESIGN.md §4 for the index).
package experiments

import (
	"fmt"
	"strings"

	"msgroofline/internal/machine"
	"msgroofline/internal/plot"
	"msgroofline/internal/sched"
	"msgroofline/internal/sim"
	"msgroofline/internal/spmat"
)

// Scale selects experiment sizing: Quick shrinks problem sizes so the
// whole suite runs in seconds; Full uses paper-scale parameters where
// the simulation cost allows (downscales are noted in the output).
type Scale int

const (
	// Quick runs small configurations (CI-sized).
	Quick Scale = iota
	// Full runs paper-scale configurations.
	Full
)

// Output is one regenerated table or figure.
type Output struct {
	// ID is the experiment key, e.g. "fig3" or "tableII".
	ID string
	// Title is the human heading.
	Title string
	// Text is the rendered tables and ASCII charts.
	Text string
	// Series is the underlying data for CSV export.
	Series []plot.Series
	// Notes record paper-vs-measured observations and any scaling
	// substitutions.
	Notes []string
}

// Render concatenates the output for terminal display.
func (o *Output) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s: %s ====\n\n", o.ID, o.Title)
	b.WriteString(o.Text)
	if len(o.Notes) > 0 {
		b.WriteString("\nNotes:\n")
		for _, n := range o.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

// Env carries the run-wide context every experiment receives: the
// problem scale and the window worker parallelism for every simulated
// world. The shard count never changes what any experiment outputs:
// on the coupled engine -shards caps only how many node groups
// execute a window concurrently (see comm.Spec.Shards), so the
// rendered suite is byte-identical at any Shards value.
type Env struct {
	Scale  Scale
	Shards int
}

// Experiment is a registered generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Env) (*Output, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "tableI", Title: "Evaluation platforms (Table I / Table III)", Run: func(*Env) (*Output, error) { return TableI() }},
		{ID: "fig1", Title: "Message Roofline overview on Frontier (Fig 1)", Run: Fig1},
		{ID: "fig2", Title: "Node architectures (Fig 2)", Run: func(*Env) (*Output, error) { return Fig2() }},
		{ID: "fig3", Title: "Two-sided vs one-sided MPI bandwidth on CPUs (Fig 3)", Run: Fig3},
		{ID: "fig4", Title: "GPU-initiated put-with-signal and CAS (Fig 4)", Run: Fig4},
		{ID: "tableII", Title: "Workload characterization (Table II)", Run: TableII},
		{ID: "fig5", Title: "Stencil time on CPUs and GPUs (Fig 5)", Run: Fig5},
		{ID: "fig6", Title: "Workload communication bounds on Perlmutter CPU (Fig 6)", Run: Fig6},
		{ID: "fig7", Title: "Messaging latency vs msg/sync per workload (Fig 7)", Run: Fig7},
		{ID: "fig8", Title: "SpTRSV time on CPUs and GPUs (Fig 8)", Run: Fig8},
		{ID: "fig9", Title: "Distributed hashtable time (Fig 9)", Run: Fig9},
		{ID: "fig10", Title: "Message splitting speedup on Perlmutter GPU (Fig 10)", Run: Fig10},
		{ID: "ext-ccl", Title: "Extension: NCCL-style ring collectives (paper future work)", Run: ExtCCL},
		{ID: "ext-frontier", Title: "Extension: Frontier GPU with projected ROC_SHMEM", Run: ExtFrontierGPU},
		{ID: "ext-notified", Title: "Extension: notified access (hardware put-with-signal)", Run: ExtNotified},
		{ID: "ext-offload", Title: "Extension: offloaded transports (stream-triggered MPI, memory channels)", Run: ExtOffload},
		{ID: "ext-ridgeline", Title: "Extension: the Ridgeline — 2D distributed roofline vs topology", Run: ExtRidgeline},
	}
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

// SuiteOptions configures one RunSuite invocation. The zero value
// runs quick-scale, single-job, with one window worker.
type SuiteOptions struct {
	// Scale selects experiment sizing (Quick or Full).
	Scale Scale
	// Jobs caps concurrent experiment workers (<= 0 selects
	// GOMAXPROCS). Output order is fixed, so the rendered suite is
	// byte-identical at any job count.
	Jobs int
	// Shards is the window worker parallelism of every simulated
	// world (0 means 1). The node-group decomposition and event order
	// are topology-determined, so the suite is byte-identical at any
	// shard count.
	Shards int
	// Cache is ignored: nothing is memoized.
	//
	// Deprecated: kept only so benchmark/workloads.go, which still
	// passes a pointcache.Cache, builds until the next benchmark
	// change drops it.
	Cache any
}

// Unplanned is RunSuite's third result, a zero-size placeholder that
// carries nothing.
//
// Deprecated: it keeps RunSuite's four-result shape for
// benchmark/workloads.go and goes with SuiteOptions.Cache.
type Unplanned struct{}

// RunSuite regenerates the given experiments on up to opt.Jobs
// concurrent workers and returns their outputs in the order they were
// given — registry order for Registry(). Each experiment is an
// independent, bit-reproducible set of simulations; on the first
// failure no further experiments start, and every failure is
// aggregated into the returned error. The returned sched.Stats hold
// per-experiment wall times for reporting; the third result is always
// the zero Unplanned.
func RunSuite(exps []Experiment, opt SuiteOptions) ([]*Output, *sched.Stats, Unplanned, error) {
	env := &Env{Scale: opt.Scale, Shards: opt.Shards}
	outs, stats, err := sched.Map(opt.Jobs, len(exps), func(i int) (*Output, error) {
		out, err := exps[i].Run(env)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s failed: %w", exps[i].ID, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, stats, Unplanned{}, err
	}
	return outs, stats, Unplanned{}, nil
}

// helpers -------------------------------------------------------------------

// getMachine resolves a catalog name, turning an unknown machine into
// a reported experiment failure instead of a crash.
func getMachine(name string) (*machine.Config, error) {
	return machine.Get(name)
}

// matrixFor returns the SpTRSV factor for the scale.
func matrixFor(s Scale) (*spmat.SupTri, string, error) {
	if s == Full {
		m, err := spmat.Generate(spmat.M3DC1Like)
		return m, "M3D-C1-like synthetic factor (25200 x 25200, paper matrix scaled 5x; message sizes preserved at 24-1040 B)", err
	}
	m, err := spmat.Generate(spmat.Params{N: 2400, MeanSnode: 24, Fill: 1.0, Seed: 20230901})
	return m, "quick-scale synthetic factor (2400 x 2400)", err
}

func usStr(t sim.Time) string { return fmt.Sprintf("%.2f", t.Microseconds()) }

func msStr(t sim.Time) string { return fmt.Sprintf("%.3f", t.Seconds()*1e3) }
