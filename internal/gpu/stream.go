// Package gpu models the device-side trigger engine that
// stream-triggered communication relies on: descriptors enqueued by
// the host fire on the device in stream order, each one trigger
// latency after its predecessor completes. The rest of a GPU
// processing element (kernel launch cost, compute throughput and
// injection channels) is machine.GPUConfig data that the workloads
// and transports charge directly.
package gpu

import "msgroofline/internal/sim"

// Stream models the device-side trigger engine of stream-triggered
// communication: the host enqueues descriptors ahead of time, and the
// device fires each one when its stream dependency — the previous
// descriptor on the same stream — has completed. Firing costs the
// machine's trigger latency twice over: once between dependency
// resolution and wire entry (the fire delay) and once as the engine's
// occupancy before the next descriptor becomes eligible.
//
// A Stream is pure bookkeeping: it computes fire times, and the
// transport schedules the actual network injection at the returned
// time. It keeps O(1) state for the oracles: the fire count and the
// first descriptor that fired before its stream dependency resolved.
// All state belongs to the owning rank's engine, so a Stream needs no
// locking.
type Stream struct {
	trigger sim.Time
	cursor  sim.Time // completion time of the latest descriptor
	fired   int
	early   *EarlyFire
	// unordered disables the stream-dependency wait: descriptors fire
	// trigger-late after their enqueue regardless of predecessors
	// (the world's ordering switch, runtime.Chaos.Unordered).
	unordered bool
}

// EarlyFire records a descriptor that fired before its stream
// dependency resolved. Ready is the later of its enqueue and its
// predecessor's completion, so At < Ready also means it fired before
// its predecessor completed, independent of any schedule jitter.
type EarlyFire struct {
	// Index is the descriptor's position in enqueue order.
	Index int
	// At is when it fired (entered the wire); Ready is when its
	// dependency resolved. Times are absolute.
	At, Ready sim.Time
}

// NewStream returns an empty stream with the given trigger latency;
// unordered deliberately breaks its ordering contract.
func NewStream(trigger sim.Time, unordered bool) *Stream {
	return &Stream{trigger: trigger, unordered: unordered}
}

// Enqueue records a descriptor enqueued at enq and returns its fire
// time. Ordered semantics: the descriptor becomes ready when its
// predecessor completes, fires one trigger latency after the later of
// ready and enqueue, and holds the engine for another trigger latency.
func (s *Stream) Enqueue(enq sim.Time) sim.Time {
	ready := s.cursor
	if ready < enq {
		ready = enq
	}
	at := ready + s.trigger
	if s.unordered {
		at = enq + s.trigger
	}
	done := at + s.trigger
	if done > s.cursor {
		s.cursor = done
	}
	if at < ready && s.early == nil {
		s.early = &EarlyFire{Index: s.fired, At: at, Ready: ready}
	}
	s.fired++
	return at
}

// Fired returns how many descriptors the stream has fired.
func (s *Stream) Fired() int { return s.fired }

// Early returns the first descriptor that fired before its stream
// dependency resolved, or nil if none did.
func (s *Stream) Early() *EarlyFire { return s.early }
