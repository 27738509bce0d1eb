package sim

// Schedule perturbation: an opt-in fuzzing mode for the conformance
// harness (internal/conformance). From a seed, the engine randomly
// permutes the firing order of same-timestamp events and injects
// bounded latency jitter into every scheduled event, exposing transport
// implementations to the adversarial orderings a real network produces.
// With no perturbation installed (the default) nothing here runs and
// event dispatch is byte-identical to the committed golden output.
//
// Every perturbed event consumes exactly one PerturbDecision. In Record
// mode the decisions are captured; a captured trace replayed through
// Script reproduces the run exactly, and a shrunk script (decisions
// zeroed back to neutral) replays the minimal perturbation that still
// triggers a failure. Decision k always applies to the k-th scheduled
// event, so a script remains meaningful while it is being shrunk even
// though later schedule contents change.

// PerturbDecision records how one scheduled event was perturbed. The
// zero value is neutral: no jitter, FIFO placement among equal
// timestamps (exactly the unperturbed schedule).
type PerturbDecision struct {
	// Jitter is extra delay added to the event's firing time. It is
	// never negative, so causality (an event scheduled from another)
	// is preserved.
	Jitter Time
	// Prio replaces the high bits of the same-timestamp ordering key:
	// among events with equal firing times, lower Prio fires first,
	// ties broken by scheduling order. Zero keeps pure FIFO.
	Prio uint32
}

// IsNeutral reports whether the decision leaves the event unperturbed.
func (d PerturbDecision) IsNeutral() bool { return d.Jitter == 0 && d.Prio == 0 }

// Perturbation configures engine schedule fuzzing. Install with
// Engine.SetPerturbation before any event is scheduled.
type Perturbation struct {
	// Seed drives the deterministic decision stream, whose drawn
	// decisions randomize the firing order of same-timestamp events.
	// Equal seeds on equal programs reproduce runs bit-for-bit.
	Seed uint64
	// MaxJitter, when positive, adds a uniform extra delay in
	// [0, MaxJitter] to every scheduled event.
	MaxJitter Time
	// Script, when non-nil, replays recorded decisions instead of
	// drawing from the seed: event k gets Script[k], and events past
	// the end get the neutral decision. Used to replay and shrink
	// failing schedules.
	Script []PerturbDecision
	// StreamLens describes a Script recorded on a multi-engine
	// (coupled) world: Script is the concatenation of the per-engine
	// decision streams in engine order, and engine g replays the slice
	// of length StreamLens[g] starting at sum(StreamLens[:g]). Nil
	// means a single stream — engine 0 replays the whole script and
	// every other engine replays neutral decisions. Slices clamp to
	// the script length, so a shrunk (tail-trimmed) flat script stays
	// replayable: trimmed decisions are neutral.
	StreamLens []int
	// Record captures the decision stream; read it back with Trace.
	Record bool

	// traces holds the recorded decisions, one stream per engine. Each
	// engine appends only to its own stream, so recording is safe under
	// the coupled engine's parallel windows.
	traces [][]PerturbDecision
}

// Trace returns the decisions recorded during the run (Record mode),
// flattened in engine-stream order. Pair it with TraceLens to replay
// on a multi-engine world.
func (p *Perturbation) Trace() []PerturbDecision {
	if len(p.traces) == 1 {
		return p.traces[0]
	}
	var out []PerturbDecision
	for _, tr := range p.traces {
		out = append(out, tr...)
	}
	return out
}

// TraceLens returns the per-stream decision counts of a recorded run
// (the StreamLens to replay Trace's flattened script with).
func (p *Perturbation) TraceLens() []int {
	lens := make([]int, len(p.traces))
	for i, tr := range p.traces {
		lens[i] = len(tr)
	}
	return lens
}

// SetPerturbation installs the perturbation mode. It must be called on
// a fresh engine — before any Spawn or At — because already
// queued events would otherwise mix perturbed and unperturbed ordering
// keys. Passing nil is a no-op on a fresh engine.
func (e *Engine) SetPerturbation(p *Perturbation) {
	e.setPerturbationStream(p, 0)
}

// setPerturbationStream installs p on the engine as decision stream
// `stream` of a multi-engine world. Stream 0 draws from p.Seed exactly
// (bit-identical to the single-engine mode); higher streams draw from
// a seed mixed with the stream index so sibling engines perturb
// independently. The stream index is the engine's node-group index,
// which is topology-determined — never shard- or worker-dependent — so
// perturbed schedules stay invariant under -shards.
func (e *Engine) setPerturbationStream(p *Perturbation, stream int) {
	if e.seq != 0 || e.nowLen != 0 || len(e.heap) != 0 {
		panic("sim: SetPerturbation on an engine with scheduled events")
	}
	e.perturb = nil
	if p == nil {
		return
	}
	e.perturb = &perturbState{Perturbation: p, stream: stream, rng: streamSeed(p.Seed, stream)}
	if p.Record {
		for len(p.traces) <= stream {
			p.traces = append(p.traces, nil)
		}
	}
	if p.Script != nil {
		e.perturb.replay = true
		e.perturb.script = streamScript(p.Script, p.StreamLens, stream)
	}
}

// perturbState is one engine's part of a perturbation: its
// decision-stream index (node-group index on a coupled world, 0
// otherwise), its pre-sliced replay script and its generator state.
type perturbState struct {
	*Perturbation
	stream int
	script []PerturbDecision
	replay bool
	rng    uint64
}

// streamSeed derives the decision-stream seed for one engine: stream 0
// keeps the user seed verbatim, higher streams decorrelate with a
// splitmix-style mix.
func streamSeed(seed uint64, stream int) uint64 {
	if stream == 0 {
		return seed
	}
	z := seed + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamScript slices the flat replay script down to one engine's
// stream, clamping to the script length (shrunk scripts lose tail
// decisions; the lost ones replay as neutral).
func streamScript(script []PerturbDecision, lens []int, stream int) []PerturbDecision {
	if lens == nil {
		if stream == 0 {
			return script
		}
		return nil
	}
	if stream >= len(lens) {
		return nil
	}
	off := 0
	for g := 0; g < stream; g++ {
		off += lens[g]
	}
	if off >= len(script) {
		return nil
	}
	end := off + lens[stream]
	if end > len(script) {
		end = len(script)
	}
	return script[off:end]
}

// rngNext is splitmix64: a tiny, stable PRNG so perturbed schedules
// never depend on the Go version's math/rand internals.
func (ps *perturbState) rngNext() uint64 {
	ps.rng += 0x9e3779b97f4a7c15
	z := ps.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// perturbDecision produces the decision for event index idx,
// either replayed from the engine's stream slice of the script or
// drawn from the stream-seeded generator.
func (e *Engine) perturbDecision(idx uint64) PerturbDecision {
	p := e.perturb
	var d PerturbDecision
	if p.replay {
		if int(idx) < len(p.script) {
			d = p.script[idx]
		}
	} else {
		d.Prio = uint32(p.rngNext() >> 32)
		if p.MaxJitter > 0 {
			d.Jitter = Time(p.rngNext() % uint64(p.MaxJitter+1))
		}
	}
	if p.Record {
		p.traces[p.stream] = append(p.traces[p.stream], d)
	}
	return d
}
