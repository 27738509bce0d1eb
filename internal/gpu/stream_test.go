package gpu

import (
	"testing"

	"msgroofline/internal/sim"
)

// enqTimes derives a deterministic pseudo-random enqueue schedule:
// nondecreasing times with bursty gaps, the pattern a host thread
// posting descriptors between compute phases produces.
func enqTimes(seed uint64, n int) []sim.Time {
	out := make([]sim.Time, n)
	var t sim.Time
	rng := seed
	for i := range out {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		// Gaps from 0 to ~3us: some enqueues race the trigger engine,
		// some let the stream drain first.
		t += sim.Time(z % uint64(3*sim.Microsecond))
		out[i] = t
	}
	return out
}

// TestStreamOrderedProperties checks the ordered-firing contract over
// randomized enqueue schedules: every descriptor becomes ready no
// earlier than its enqueue, fires one trigger latency after readiness,
// never before its predecessor completes, and the fire times are
// strictly monotone per stream.
func TestStreamOrderedProperties(t *testing.T) {
	const trigger = 1100 * sim.Nanosecond
	for seed := uint64(0); seed < 20; seed++ {
		s := NewStream(trigger)
		for _, enq := range enqTimes(seed, 50) {
			s.Enqueue(enq)
		}
		log := s.Log()
		if len(log) != 50 {
			t.Fatalf("seed %d: logged %d fires, want 50", seed, len(log))
		}
		for i, f := range log {
			if f.Ready < f.Enq {
				t.Fatalf("seed %d: fire %d ready %v before enqueue %v", seed, i, f.Ready, f.Enq)
			}
			if f.At != f.Ready+trigger {
				t.Fatalf("seed %d: fire %d at %v, want ready+trigger %v", seed, i, f.At, f.Ready+trigger)
			}
			if f.Done != f.At+trigger {
				t.Fatalf("seed %d: fire %d done %v, want at+trigger %v", seed, i, f.Done, f.At+trigger)
			}
			if i > 0 {
				if f.At < log[i-1].Done {
					t.Fatalf("seed %d: fire %d at %v before predecessor done %v", seed, i, f.At, log[i-1].Done)
				}
				if f.At <= log[i-1].At {
					t.Fatalf("seed %d: fire times not strictly monotone at %d", seed, i)
				}
			}
		}
	}
}

// TestStreamDigestDeterministic: identical enqueue schedules fold to
// identical digests, different schedules to different ones.
func TestStreamDigestDeterministic(t *testing.T) {
	build := func(seed uint64) uint64 {
		s := NewStream(1100 * sim.Nanosecond)
		for _, enq := range enqTimes(seed, 30) {
			s.Enqueue(enq)
		}
		return s.Digest()
	}
	if build(7) != build(7) {
		t.Fatal("same schedule, different digests")
	}
	if build(7) == build(8) {
		t.Fatal("different schedules collided")
	}
	if NewStream(sim.Microsecond).Digest() == 0 {
		t.Fatal("digest must use a nonzero offset basis")
	}
}

// TestStreamUnorderedBreaksDependency: with the ordering deliberately
// disabled, back-to-back enqueues fire before their predecessor
// completes — and the recorded Ready times still expose the violation
// (At < Ready), independent of any schedule jitter.
func TestStreamUnorderedBreaksDependency(t *testing.T) {
	const trigger = 1100 * sim.Nanosecond
	s := NewStream(trigger)
	s.SetUnordered(true)
	for i := 0; i < 4; i++ {
		// Enqueues 40ns apart: far faster than the trigger engine.
		s.Enqueue(sim.Time(i) * 40 * sim.Nanosecond)
	}
	log := s.Log()
	brokeDep := false
	brokeReady := false
	for i, f := range log {
		if i > 0 && f.At < log[i-1].Done {
			brokeDep = true
		}
		if f.At < f.Ready {
			brokeReady = true
		}
	}
	if !brokeDep {
		t.Fatal("unordered stream still waited for predecessors")
	}
	if !brokeReady {
		t.Fatal("Ready times do not expose the unordered violation")
	}
}
