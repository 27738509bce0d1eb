package gpu

import (
	"slices"
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

// TestStreamOrderedProperties checks ordered firing over randomized
// enqueue schedules against the reference recurrence: a descriptor is
// ready at the later of its enqueue and its predecessor's completion,
// fires one trigger latency after readiness and completes one trigger
// latency later. Fire times and count must match it, fire times must
// be strictly monotone, and no descriptor may fire early.
func TestStreamOrderedProperties(t *testing.T) {
	const trigger = 1100 * sim.Nanosecond
	for seed := uint64(0); seed < 20; seed++ {
		s := NewStream(trigger, false)
		var cursor, prev sim.Time
		for i, enq := range enqTimes(seed, 50) {
			ready := max(cursor, enq)
			want := ready + trigger
			cursor = want + trigger
			at := s.Enqueue(enq)
			if at != want {
				t.Fatalf("seed %d: fire %d at %v, want %v", seed, i, at, want)
			}
			if i > 0 && at <= prev {
				t.Fatalf("seed %d: fire times not strictly monotone at %d", seed, i)
			}
			prev = at
		}
		if s.Fired() != 50 || s.Early() != nil {
			t.Fatalf("seed %d: fired %d, early %+v; want 50, none", seed, s.Fired(), s.Early())
		}
	}
}

// TestStreamDigestDeterministic: identical enqueue schedules fire at
// identical times, different schedules at different ones.
func TestStreamDigestDeterministic(t *testing.T) {
	build := func(seed uint64) []sim.Time {
		s := NewStream(1100*sim.Nanosecond, false)
		var fires []sim.Time
		for _, enq := range enqTimes(seed, 30) {
			fires = append(fires, s.Enqueue(enq))
		}
		return fires
	}
	if !slices.Equal(build(7), build(7)) {
		t.Fatal("same schedule, different fire times")
	}
	if slices.Equal(build(7), build(8)) {
		t.Fatal("different schedules fired identically")
	}
}

// TestStreamUnorderedBreaksDependency: with the ordering deliberately
// disabled, back-to-back enqueues fire before their predecessor
// completes, and the stream records the first such descriptor with a
// Ready time that exposes the violation (At < Ready), independent of
// any schedule jitter.
func TestStreamUnorderedBreaksDependency(t *testing.T) {
	const trigger = 1100 * sim.Nanosecond
	s := NewStream(trigger, true)
	var prevDone sim.Time
	for i := 0; i < 4; i++ {
		// Enqueues 40ns apart: far faster than the trigger engine.
		at := s.Enqueue(sim.Time(i) * 40 * sim.Nanosecond)
		if i == 1 && at >= prevDone {
			t.Fatal("unordered stream still waited for its predecessor")
		}
		prevDone = at + trigger
	}
	e := s.Early()
	if e == nil || e.Index != 1 || e.At >= e.Ready {
		t.Fatalf("early fire = %+v, want descriptor 1 with At < Ready", e)
	}
	if s.Fired() != 4 {
		t.Fatalf("fired %d descriptors, want 4", s.Fired())
	}
}
