package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"time"

	"msgroofline/internal/machine"
	"msgroofline/internal/mpi"
	simruntime "msgroofline/internal/runtime"
)

// The traced run times the public calls into each layer from outside
// the program: spans around the calls the benchmark makes, plus the
// counters the program already exports (runtime.Usage, the coupled
// engine's PhaseWall/Dispatches, sched.Stats, pointcache.Stats).

// span is one timed call. Parent indexes the enclosing span (-1 for a
// root); Run names the traced workload all spans of one run share.
type span struct {
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

// tracer keeps spans and metrics in memory; the run writes them out
// when it ends. Every method is a no-op on a nil tracer, so an
// untraced unit runs the same code with nothing recorded.
type tracer struct {
	run     string
	t0      time.Time
	spans   []span
	open    []int
	closed  int // the span that ended last
	metrics metrics
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), closed: -1, metrics: metrics{}}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// span times fn as a span nested in the innermost open one.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Run: t.run, Name: name, Parent: parent, Start: t.now()})
	t.open = append(t.open, id)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
	t.closed = id
	return err
}

// tail adds a child span of duration d that ends where the last closed
// span ended: a phase the program timed itself and that is known to
// finish its caller.
func (t *tracer) tail(name string, d time.Duration) {
	if t == nil || t.closed < 0 {
		return
	}
	p := t.spans[t.closed]
	t.spans = append(t.spans, span{Run: t.run, Name: name, Parent: t.closed, Start: p.End - d.Seconds(), End: p.End})
}

// find returns the last span with the given name.
func (t *tracer) find(name string) int {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("benchmark: no span %q", name))
}

// dur is the duration of the last span with the given name, in seconds.
func (t *tracer) dur(name string) float64 {
	s := t.spans[t.find(name)]
	return s.End - s.Start
}

// self is the self time of the last span with the given name.
func (t *tracer) self(name string) float64 { return selfTimes(t.spans)[t.find(name)] }

// set records a metric. A value that is not finite (a ratio over a
// zero base) was not measured and is left out, never written as 0.
func (t *tracer) set(name string, v float64, unit string) {
	if t != nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
		t.metrics[name] = metricValue{v, unit}
	}
}

// selfTimes gives each span's duration minus the part of its interval
// that its direct children cover.
func selfTimes(spans []span) []float64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// engine records the coupled-engine counters of a unit's worlds.
func (t *tracer) engine(exec, barrier, scan time.Duration, windows, events uint64, busyWall float64) {
	t.set("sim.exec_s", exec.Seconds(), "s")
	t.set("sim.barrier_s", barrier.Seconds(), "s")
	t.set("sim.scan_s", scan.Seconds(), "s")
	if phase := exec + barrier + scan; phase > 0 {
		t.set("sim.barrier_share", float64(barrier)/float64(phase), "ratio")
	}
	t.set("sim.windows", float64(windows), "count")
	t.set("sim.events", float64(events), "count")
	t.set("sim.busy_wall", busyWall, "ratio")
}

// usage records the engine counters of the worlds that ran between
// two runtime.Usage snapshots; wall is the time of the call that ran
// them. runtime.Usage does not carry dispatches, so none is recorded.
func (t *tracer) usage(a, b simruntime.UsageSummary, wall float64) {
	t.engine(b.ExecWall-a.ExecWall, b.BarrierWall-a.BarrierWall, b.ScanWall-a.ScanWall,
		b.Windows-a.Windows, eventsBetween(a, b), (b.Busy-a.Busy).Seconds()/wall)
	t.set("sim.worlds", float64(b.Worlds-a.Worlds), "count")
}

func eventsBetween(a, b simruntime.UsageSummary) uint64 {
	var n int64
	for _, e := range b.Events {
		n += e
	}
	for _, e := range a.Events {
		n -= e
	}
	return uint64(n)
}

// collect runs a GC and returns freed memory to the OS, so one step's
// garbage does not land in the next step's time.
func collect() { debug.FreeOSMemory() }

func heapMB() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// traceWorld times the layers a coupled MPI world is built from, each
// as a standalone call with a GC in between (the largest, mpi, comes
// last, so it alone needs fresh memory): the fabric and placement
// (machine), cold route resolution over the node pairs the kernel uses
// (netsim), the coupled engine and endpoints (runtime), and the
// per-rank MPI state (mpi). Their sum is the kernel's build layer.
// With nil pairs the netsim layer is left out.
func traceWorld(t *tracer, cfg *machine.Config, ranks int, pairs func(*machine.Instance) [][2]string) error {
	var inst *machine.Instance
	if err := t.span("machine.Instantiate", func() (err error) { inst, err = cfg.Instantiate(ranks); return err }); err != nil {
		return err
	}
	if pairs != nil {
		ps := pairs(inst)
		err := t.span("netsim.RouteTo", func() error {
			for _, p := range ps {
				if _, err := inst.Net.RouteTo(p[0], p[1]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.set("netsim.route_s", t.dur("netsim.RouteTo"), "s")
		t.set("netsim.routes", float64(len(ps)), "count")
	}
	inst = nil
	collect()
	if err := t.span("runtime.NewWorldSharded", func() error {
		_, err := simruntime.NewWorldSharded(cfg, ranks, workers)
		return err
	}); err != nil {
		return err
	}
	collect()
	heap0 := heapMB()
	var c *mpi.Comm
	if err := t.span("mpi.NewCommSharded", func() (err error) { c, err = mpi.NewCommSharded(cfg, ranks, workers); return err }); err != nil {
		return err
	}
	heap1 := heapMB()
	goruntime.KeepAlive(c)

	instS, worldS, commS := t.dur("machine.Instantiate"), t.dur("runtime.NewWorldSharded"), t.dur("mpi.NewCommSharded")
	t.set("machine.instantiate_s", instS, "s")
	t.set("runtime.world_build_s", worldS-instS, "s")
	t.set("mpi.comm_build_s", commS-worldS, "s")
	t.set("mpi.comm_heap_mb", heap1-heap0, "MB")
	t.set("kernel.build_s", commS, "s")
	return nil
}

// additive are the layers that partition kernel.run_s; attribute
// derives kernel.unattributed_s so that they sum to it exactly.
var additive = []string{"kernel.build_s", "sim.exec_s", "sim.barrier_s", "sim.scan_s", "kernel.unattributed_s"}

// attribute sets kernel.unattributed_s where the workload has a build
// layer: the run time no other additive layer accounts for.
func attribute(m metrics) {
	if _, ok := m["kernel.build_s"]; !ok {
		return
	}
	rest := m["kernel.run_s"].Value
	for _, name := range additive[:len(additive)-1] {
		rest -= m[name].Value
	}
	m["kernel.unattributed_s"] = metricValue{rest, "s"}
}

// traceUnit runs one traced unit at the benchmark's worker count and
// checks its output. It runs in a process of its own: after a unit as
// large as stencil-df10k, the runtime zeroes the reused heap pages
// that a fresh process gets untouched from the OS, so a second large
// step in one process would need more memory than the first.
func traceUnit(w *workload, seed uint64) (*tracer, outcome, error) {
	t := newTracer(w.name + "/trace")
	var o outcome
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	err := t.span("unit", func() (err error) { o, err = w.unit(t, seed, workers); return err })
	goruntime.ReadMemStats(&ms1)
	if err == nil {
		err = w.check(seed, o)
	}
	if err != nil {
		return t, o, err
	}
	run := t.dur("unit")
	t.set("kernel.run_s", run, "s")
	t.set("sim.ns_per_event", run*1e9/float64(o.Events), "ns")
	t.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB")
	t.set("go.allocs", float64(ms1.Mallocs-ms0.Mallocs), "count")
	t.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	return t, o, nil
}

// traceBuild runs the workload's standalone construction calls.
func traceBuild(w *workload) (*tracer, error) {
	t := newTracer(w.name + "/build")
	if w.construct == nil {
		return t, fmt.Errorf("%s has no construction step", w.name)
	}
	return t, t.span("build", func() error { return w.construct(t) })
}
