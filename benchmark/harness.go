package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"msgroofline/internal/stats"
)

// The parent re-executes its own binary once per unit, so every unit
// is a fresh process the way users run cmd/experiments or cmd/stencil,
// and the child's rusage gives its CPU time and peak RSS exactly.

const (
	// minReps is the fewest units a time-budgeted run measures, so
	// its medians never rest on one or two samples.
	minReps = 3
	// unitTimeout kills a unit that hangs; the slowest unit takes
	// under 10 s on the 2-core host the benchmark is sized for.
	unitTimeout = 120 * time.Second
)

// childLine is the one JSON line a unit process prints.
type childLine struct {
	WallS float64 `json:"wall_s,omitempty"`
	outcome
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
	Metrics metrics `json:"metrics,omitempty"`
	Spans   []span  `json:"spans,omitempty"`
}

// The parts a child process can run.
const (
	partRun      = "run"      // one untraced unit at the benchmark's worker count
	partWorkers1 = "workers1" // one untraced unit with a single window worker
	partBuild    = "build"    // the standalone construction calls (traceBuild)
	partTrace    = "trace"    // one traced unit (traceUnit)
)

// runUnit is the child side: it runs one part of w in this process,
// checks the unit's output against the pin and writes one JSON line
// to out.
func runUnit(w *workload, seed uint64, part string, out io.Writer) error {
	var line childLine
	var err error
	switch part {
	case partRun, partWorkers1:
		n := workers
		if part == partWorkers1 {
			n = 1
		}
		start := time.Now()
		line.outcome, err = w.unit(nil, seed, n)
		line.WallS = time.Since(start).Seconds()
		if err == nil {
			err = w.check(seed, line.outcome)
		}
	case partBuild:
		var t *tracer
		t, err = traceBuild(w)
		line.Metrics, line.Spans = t.metrics, t.spans
	case partTrace:
		var t *tracer
		t, line.outcome, err = traceUnit(w, seed)
		line.Metrics, line.Spans = t.metrics, t.spans
	default:
		err = fmt.Errorf("unknown part %q", part)
	}
	line.OK = err == nil
	if err != nil {
		line.Error = err.Error()
	}
	if encErr := json.NewEncoder(out).Encode(line); err == nil {
		err = encErr
	}
	return err
}

// sample is one unit as the parent measured it.
type sample struct {
	childLine
	CPU   float64 // user+sys CPU time of the unit process, s
	RSSMB float64 // peak RSS of the unit process, MB
	Setup float64 // process wall time minus the unit's own wall time, s
	Err   string  // why the unit counts as failed; "" if it did not
}

type harness struct {
	exe    string // this binary, re-executed for every unit
	stderr io.Writer
}

// spawn runs one part of w in a child process and waits for it to
// end. Before starting it, the memory guard compares MemAvailable with
// guardMB, the unit's expected peak RSS, and fails the unit instead of
// risking an OOM kill.
func (h *harness) spawn(w *workload, seed uint64, part string, guardMB float64) sample {
	var s sample
	if avail, err := meminfoMB("MemAvailable"); err == nil && avail < guardMB {
		s.Err = fmt.Sprintf("memory guard: %.0f MB available, a %s unit peaks at %.0f MB", avail, w.name, guardMB)
		return s
	}
	ctx, cancel := context.WithTimeout(context.Background(), unitTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.exe, "-unit", w.name, "-part", part, "-seed", strconv.FormatUint(seed, 10))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, h.stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			s.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
			s.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	perr := lastJSONLine(out.Bytes(), &s.childLine)
	switch {
	case ctx.Err() != nil:
		s.Err = fmt.Sprintf("timed out after %v", unitTimeout)
	case err != nil && s.Error != "":
		s.Err = fmt.Sprintf("%v: %s", err, s.Error)
	case err != nil:
		s.Err = err.Error()
	case perr != nil:
		s.Err = fmt.Sprintf("unit output: %v", perr)
	case !s.OK:
		s.Err = s.Error
	}
	s.Setup = wall - s.WallS
	return s
}

// lastJSONLine decodes the last line of out into v.
func lastJSONLine(out []byte, v any) error {
	out = bytes.TrimSpace(out)
	if len(out) == 0 {
		return fmt.Errorf("no output")
	}
	return json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], v)
}

// meminfoMB reads one field of /proc/meminfo, such as MemAvailable.
func meminfoMB(key string) (float64, error) {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/meminfo", key)
}

// memGuard is the peak RSS the memory guard expects of a workload's
// next unit: the recorded value until a unit of this run has measured
// its own, then the largest one measured.
type memGuard struct {
	mb       float64
	measured bool
}

func (g *memGuard) note(s sample) {
	if s.Err == "" && (!g.measured || s.RSSMB > g.mb) {
		g.mb, g.measured = s.RSSMB, true
	}
}

// measure runs w.reps units of w one after another. With a budget it
// stops sooner, once the slowest unit so far would no longer end within
// it (after at least minReps). The w.reps cap also bounds a budgeted run
// whose units fail at once, as a tripped memory guard does.
func (h *harness) measure(w *workload, seed uint64, budget time.Duration) []sample {
	g := memGuard{mb: w.rssMB}
	var ss []sample
	var slowest time.Duration
	start := time.Now()
	for n := 0; n < w.reps; n++ {
		if budget > 0 && n >= minReps && time.Since(start)+slowest > budget {
			break
		}
		t0 := time.Now()
		s := h.spawn(w, seed, partRun, g.mb)
		slowest = max(slowest, time.Since(t0))
		g.note(s)
		if s.Err == "" {
			fmt.Fprintf(h.stderr, "%s unit %d: wall %.3f s, cpu %.3f s, rss %.0f MB, setup %.3f s\n",
				w.name, n+1, s.WallS, s.CPU, s.RSSMB, s.Setup)
		} else {
			fmt.Fprintf(h.stderr, "%s unit %d FAILED: %s\n", w.name, n+1, s.Err)
		}
		ss = append(ss, s)
	}
	agree(ss)
	return ss
}

// agree fails every unit whose simulated output differs from the first
// successful unit's: a seed without a pin must still give one output.
func agree(ss []sample) {
	first := -1
	for i := range ss {
		switch {
		case ss[i].Err != "":
		case first < 0:
			first = i
		case ss[i].outcome != ss[first].outcome:
			ss[i].Err = fmt.Sprintf("output %v differs from unit %d's %v", ss[i].outcome, first+1, ss[first].outcome)
		}
	}
}

// summary is one metric over the units of a run.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values,omitempty"`
}

func summarize(xs []float64, unit string) summary {
	q1, q3 := stats.Percentile(xs, 25), stats.Percentile(xs, 75)
	return summary{Median: stats.Median(xs), Q1: q1, Q3: q3, IQR: q3 - q1, N: len(xs), Unit: unit, Values: xs}
}

// endToEndMetric is a metric a user of the simulator sees per unit,
// taken with tracing off.
type endToEndMetric struct {
	name, unit string
	of         func(sample) float64
}

// endToEnd are the end-to-end metrics; fail_ratio is reported beside
// them.
var endToEnd = []endToEndMetric{
	{"wall_s", "s", func(s sample) float64 { return s.WallS }},
	{"cpu_s", "s", func(s sample) float64 { return s.CPU }},
	{"peak_rss_mb", "MB", func(s sample) float64 { return s.RSSMB }},
	{"setup_s", "s", func(s sample) float64 { return s.Setup }},
}

// workloadReport is one workload's part of a report: end-to-end
// summaries for a measured run, per-layer metrics for a traced one.
type workloadReport struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics,omitempty"`
	Layers    metrics            `json:"layers,omitempty"`
}

func tally(name string, ss []sample) (workloadReport, []sample) {
	r := workloadReport{Name: name, Attempted: len(ss)}
	var ok []sample
	for _, s := range ss {
		if s.Err != "" {
			r.Failed++
			r.Errors = append(r.Errors, s.Err)
		} else {
			ok = append(ok, s)
		}
	}
	return r, ok
}

func summarizeSamples(name string, ss []sample) workloadReport {
	r, ok := tally(name, ss)
	r.Metrics = map[string]summary{
		"fail_ratio": {Median: float64(r.Failed) / float64(r.Attempted), N: r.Attempted, Unit: "ratio"},
	}
	if len(ok) == 0 {
		return r
	}
	for _, m := range endToEnd {
		xs := make([]float64, len(ok))
		for i, s := range ok {
			xs[i] = m.of(s)
		}
		r.Metrics[m.name] = summarize(xs, m.unit)
	}
	return r
}

// traced makes the traced pass of one workload, each part a fresh
// process: minReps untraced reference units, the standalone
// construction calls (where the workload has them), the traced unit,
// and a workers=1 unit (where asked). Every unit's output must agree.
// trace.overhead is the traced kernel.run_s over the reference units'
// median wall time; sim.speedup_w2 is the workers=1 unit's wall time
// over it. The spans are written to .bench_build/spans-<workload>.json.
func (h *harness) traced(w *workload, seed uint64) workloadReport {
	g := memGuard{mb: w.rssMB}
	var units []sample
	unit := func(part string) sample {
		s := h.spawn(w, seed, part, g.mb)
		g.note(s)
		units = append(units, s)
		return s
	}
	var refWalls []float64
	for i := 0; i < minReps; i++ {
		refWalls = append(refWalls, unit(partRun).WallS)
	}
	refWall := stats.Median(refWalls)
	var build sample
	if w.construct != nil {
		build = h.spawn(w, seed, partBuild, g.mb)
	}
	tr := unit(partTrace)
	var w1 sample
	if w.speedup {
		w1 = unit(partWorkers1)
	}
	agree(units)
	all := units
	if w.construct != nil {
		all = append(all, build)
	}
	r, _ := tally(w.name, all)
	for _, e := range r.Errors {
		fmt.Fprintf(h.stderr, "%s traced run FAILED: %s\n", w.name, e)
	}
	if r.Failed > 0 {
		return r
	}
	fmt.Fprintf(h.stderr, "%s: %d units agree on %v\n", w.name, len(units), tr.outcome)
	m := metrics{}
	for _, part := range []metrics{build.Metrics, tr.Metrics} {
		for k, v := range part {
			m[k] = v
		}
	}
	attribute(m)
	m["trace.overhead"] = metricValue{m["kernel.run_s"].Value / refWall, "x"}
	if w.speedup {
		m["sim.speedup_w2"] = metricValue{w1.WallS / refWall, "x"}
	}
	r.Layers = m
	spans := append([]span(nil), build.Spans...)
	for _, s := range tr.Spans {
		if s.Parent >= 0 {
			s.Parent += len(build.Spans)
		}
		spans = append(spans, s)
	}
	if err := writeSpans(w.name, spans); err != nil {
		fmt.Fprintf(h.stderr, "%s: %v\n", w.name, err)
	}
	printLayers(h.stderr, w.name, m)
	return r
}

func writeSpans(name string, spans []span) error {
	const dir = ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+name+".json"), append(data, '\n'), 0o644)
}

func printLayers(w io.Writer, name string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s per-layer metrics (traced run):\n", name)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	if _, ok := m["kernel.unattributed_s"]; ok {
		var terms []string
		for _, n := range additive {
			terms = append(terms, fmt.Sprintf("%.4f", m[n].Value))
		}
		fmt.Fprintf(w, "  additive: %s = %s = %.4f s = kernel.run_s\n",
			strings.Join(additive, " + "), strings.Join(terms, " + "), m["kernel.run_s"].Value)
	}
	if _, ok := m["netsim.route_s"]; ok {
		fmt.Fprintln(w, "  netsim.route_s is not additive: in the kernel, routes resolve lazily inside sim.exec_s/sim.barrier_s")
	}
}

// result is the last line the benchmark prints for one workload.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// resultOf picks the metrics BENCHMARK.json lists from a workload
// report: end-to-end medians, or the per-layer metrics of a traced run.
func resultOf(r workloadReport, sp *spec, traced bool) (result, error) {
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics{}}
	if traced {
		for _, l := range sp.PerLayer {
			v, ok := r.Layers[l.Name]
			if !ok {
				return res, fmt.Errorf("%s: traced run did not measure %s", r.Name, l.Name)
			}
			res.Metrics[l.Name] = v
		}
		return res, nil
	}
	for _, m := range sp.EndToEnd {
		s, ok := r.Metrics[m.Name]
		if !ok {
			return res, fmt.Errorf("%s: no %s (no unit succeeded, or the benchmark does not measure it)", r.Name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{s.Median, s.Unit}
	}
	return res, nil
}

// report is what -out writes and -compare reads.
type report struct {
	Schema    string           `json:"schema"`
	Traced    bool             `json:"traced"`
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds,omitempty"`
	Workloads []workloadReport `json:"workloads"`
}

const reportSchema = "msgroofline-benchmark/v1"

type host struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	MemTotalMB float64 `json:"mem_total_mb"`
	Commit     string  `json:"commit"`
}

func hostInfo() host {
	h := host{Cores: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), Go: goruntime.Version(), Commit: "unknown"}
	h.MemTotalMB, _ = meminfoMB("MemTotal") // 0 where there is no /proc/meminfo
	// Stop git at this directory's parent, so a checkout that is not
	// a repository records "unknown" instead of an enclosing repo's.
	if wd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}
