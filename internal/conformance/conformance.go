// Package conformance is a schedule-fuzzing harness for the simulated
// transports. It replays the paper's workload kernels and a set of
// semantics micro-kernels across hundreds of seeds, each seed driving
// engine-level schedule perturbation (same-timestamp reordering plus
// bounded latency jitter, internal/sim) and network fault injection
// (latency spikes and drop-with-retransmit, internal/netsim), and
// checks invariant oracles against a clean reference run:
//
//   - MPI: non-overtaking per (source, tag), Waitall completion,
//     unexpected-queue drainage;
//   - SHMEM: put-with-signal visibility, quiet/fence ordering,
//     Outstanding drainage;
//   - workloads: stencil checksum bit-stable, sptrsv solution within
//     tolerance, hashtable shards verified with an order-invariant
//     collision count.
//
// Every run is deterministic in its seed; a failing seed is shrunk to
// a minimal perturbation script that replays the failure exactly.
package conformance

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"msgroofline/internal/netsim"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sched"
	"msgroofline/internal/sim"
)

// Options configures a conformance sweep. Seeds run on GOMAXPROCS
// workers, and every failing seed is shrunk.
type Options struct {
	// Seeds is how many consecutive seeds to run, from 0 (default 50).
	Seeds int
	// DropProb is the per-transmission drop probability. Zero selects
	// the default 0.02; negative disables drops.
	DropProb float64
	// SpikeProb is the per-message latency-spike probability. Zero
	// selects the default 0.05; negative disables spikes.
	SpikeProb float64
	// Kernels filters cases by kernel name (nil keeps all).
	Kernels []string
	// Unordered breaks the ordering contracts the micro-kernels check
	// (deliberate bug injection for mutation testing). It is the one
	// switch of every case's world (runtime.Chaos.Unordered): MPI
	// messages and memory-channel writes land in wire order, and
	// stream-triggered descriptors fire without waiting for their
	// predecessors.
	Unordered bool
}

const (
	// maxJitter bounds per-event schedule jitter.
	maxJitter = 2 * sim.Microsecond
	// maxSpike bounds a latency spike's delay.
	maxSpike = 3 * sim.Microsecond
	// shrinkBudget caps the replays spent shrinking one violation.
	shrinkBudget = 200
)

func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = 50
	}
	if o.DropProb == 0 {
		o.DropProb = 0.02
	}
	if o.SpikeProb == 0 {
		o.SpikeProb = 0.05
	}
	return o
}

// Violation is one conformance failure, reproducible from (Kernel,
// Transport, Seed) alone or — after shrinking — from Script, the
// minimal perturbation schedule that still fails.
type Violation struct {
	Kernel    string
	Transport string
	Seed      uint64
	// Detail describes the failed oracle or outcome mismatch.
	Detail string
	// Script is the (shrunk) perturbation decision schedule; replay
	// it with Replay.
	Script []sim.PerturbDecision
	// StreamLens is the per-node-group decision-stream layout of
	// Script (sim.Perturbation.StreamLens): a coupled world records
	// one stream per group, flattened in group order. Shrinking trims
	// the flat script only; the lens stay fixed and clamp.
	StreamLens []int
	// TraceLen is the recorded decision count before shrinking.
	TraceLen int
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s seed=%d script=%d/%d: %s",
		v.Kernel, v.Transport, v.Seed, activeDecisions(v.Script), v.TraceLen, v.Detail)
}

// Report summarizes a conformance sweep.
type Report struct {
	// Cases is the number of kernel x transport cells exercised.
	Cases int
	// Seeds is the number of seeds run per case.
	Seeds int
	// Runs is Cases * Seeds.
	Runs int
	// Violations holds every failure, in (seed, case) order.
	Violations []Violation
}

// Ok reports whether the sweep passed cleanly.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: %d cases x %d seeds = %d runs, %d violations",
		r.Cases, r.Seeds, r.Runs, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v.String())
	}
	return b.String()
}

// Run executes the conformance sweep: clean reference runs first,
// then every selected case under every seed's perturbation + fault
// stream, in parallel across seeds with deterministic report order.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	cases := selectCases(o)
	if len(cases) == 0 {
		return nil, fmt.Errorf("conformance: no cases match kernels=%v", o.Kernels)
	}
	refs := make([]outcome, len(cases))
	for i, kc := range cases {
		out, err := runCase(kc, chaos{})
		if err != nil {
			return nil, fmt.Errorf("conformance: reference %s/%s: %w", kc.kernel, kc.transport, err)
		}
		refs[i] = out
	}
	perSeed, _, err := sched.Map(0, o.Seeds, func(i int) ([]Violation, error) {
		seed := uint64(i)
		var vs []Violation
		for ci, kc := range cases {
			detail := check(kc, refs[ci], o.seedChaos(seed))
			if detail == "" {
				continue
			}
			vs = append(vs, o.buildViolation(kc, refs[ci], seed, detail))
		}
		return vs, nil
	})
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	rep := &Report{Cases: len(cases), Seeds: o.Seeds, Runs: len(cases) * o.Seeds}
	for _, vs := range perSeed {
		rep.Violations = append(rep.Violations, vs...)
	}
	return rep, nil
}

// buildViolation re-runs the failing seed in Record mode to capture
// its decision trace, then shrinks the trace to a minimal script that
// still reproduces a failure.
func (o Options) buildViolation(kc kcase, ref outcome, seed uint64, detail string) Violation {
	v := Violation{Kernel: kc.kernel, Transport: kc.transport.String(), Seed: seed, Detail: detail}
	rec := &sim.Perturbation{Seed: seed, MaxJitter: maxJitter, Record: true}
	runCase(kc, o.chaos(rec, seed))
	script := append([]sim.PerturbDecision(nil), rec.Trace()...)
	v.TraceLen = len(script)
	v.StreamLens = rec.TraceLens()
	v.Script = shrinkScript(script, shrinkBudget, func(s []sim.PerturbDecision) bool {
		return check(kc, ref, o.scriptChaos(seed, s, v.StreamLens)) != ""
	})
	return v
}

// Replay re-executes a violation's script against a fresh reference
// and returns the failure detail, or "" if it no longer fails.
func Replay(o Options, v Violation) string {
	o = o.withDefaults()
	for _, kc := range allCases() {
		if kc.kernel != v.Kernel || kc.transport.String() != v.Transport {
			continue
		}
		ref, err := runCase(kc, chaos{})
		if err != nil {
			return fmt.Sprintf("reference run failed: %v", err)
		}
		return check(kc, ref, o.scriptChaos(v.Seed, v.Script, v.StreamLens))
	}
	return fmt.Sprintf("unknown case %s/%s", v.Kernel, v.Transport)
}

// seedChaos builds the perturbation + fault configuration for one
// seed. Each call returns fresh objects: a Perturbation binds to one
// engine.
func (o Options) seedChaos(seed uint64) chaos {
	return o.chaos(&sim.Perturbation{Seed: seed, MaxJitter: maxJitter}, seed)
}

// scriptChaos replays a recorded (possibly shrunk) decision script
// under the same fault stream as the original seed. A nil script is
// promoted to an empty one so the engine replays all-neutral rather
// than drawing from the seed; lens restores the per-group stream
// layout the script was recorded with.
func (o Options) scriptChaos(seed uint64, script []sim.PerturbDecision, lens []int) chaos {
	if script == nil {
		script = []sim.PerturbDecision{}
	}
	return o.chaos(&sim.Perturbation{Seed: seed, Script: script, StreamLens: lens}, seed)
}

// chaos pairs a perturbation with the seed's fault stream and the
// sweep's ordering switch.
func (o Options) chaos(p *sim.Perturbation, seed uint64) chaos {
	return chaos{Chaos: runtime.Chaos{Perturb: p, Faults: o.faults(seed), Unordered: o.Unordered}}
}

// faults derives the per-seed network fault configuration; the fault
// stream seed is decorrelated from the schedule stream seed.
func (o Options) faults(seed uint64) *netsim.Faults {
	drop, spike := o.DropProb, o.SpikeProb
	if drop < 0 {
		drop = 0
	}
	if spike < 0 {
		spike = 0
	}
	if drop == 0 && spike == 0 {
		return nil
	}
	return &netsim.Faults{
		Seed:      seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		DropProb:  drop,
		SpikeProb: spike,
		MaxSpike:  maxSpike,
	}
}

func selectCases(o Options) []kcase {
	var out []kcase
	for _, kc := range allCases() {
		if len(o.Kernels) == 0 || slices.Contains(o.Kernels, kc.kernel) {
			out = append(out, kc)
		}
	}
	return out
}

// runCase executes one case, converting panics into errors so a
// fuzzing-exposed crash becomes a shrinkable violation rather than
// tearing down the sweep.
func runCase(kc kcase, ch chaos) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return kc.run(ch)
}

// check runs one case and compares it against the reference,
// returning the failure detail ("" on conformance).
func check(kc kcase, ref outcome, ch chaos) string {
	out, err := runCase(kc, ch)
	return diff(ref, out, err)
}

// diff compares a run against the reference: exact on fingerprints,
// relative-tolerance on float vectors. It returns "" on conformance.
func diff(ref outcome, got outcome, err error) string {
	if err != nil {
		return err.Error()
	}
	if got.fp != ref.fp {
		return fmt.Sprintf("fingerprint mismatch: got %s, want %s", clip(got.fp), clip(ref.fp))
	}
	if len(got.floats) != len(ref.floats) {
		return fmt.Sprintf("result length %d, want %d", len(got.floats), len(ref.floats))
	}
	for i, want := range ref.floats {
		g := got.floats[i]
		if g == want {
			continue
		}
		scale := math.Max(math.Abs(want), math.Abs(g))
		if math.IsNaN(g) || math.Abs(g-want)/scale > relTol {
			return fmt.Sprintf("result[%d] = %v, want %v (rel tol %v)", i, g, want, relTol)
		}
	}
	return ""
}

func clip(s string) string {
	if len(s) > 96 {
		return s[:93] + "..."
	}
	return s
}
