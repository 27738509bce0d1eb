package mpi

import (
	"encoding/binary"
	"fmt"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// FuzzMatchQueue fuzzes the receive matching queues: ranks 0 and 2
// stream tagged messages at rank 1, which posts exact-signature
// receives in a fuzz-chosen permutation, with a fuzz-chosen subset of
// them replaced by wildcard (AnySource, AnyTag) receives, all under a
// fuzz-seeded schedule perturbation. Invariants checked:
//
//   - every exact receive completes with the source/tag it asked for;
//   - payloads agree with the matched envelope (no cross-wiring);
//   - per (source, tag) stream, exact receives observe sequence
//     numbers 0..E-1 in posted order and wildcard receives observe the
//     remainder in increasing order (MPI non-overtaking);
//   - every message is matched exactly once and all queues drain.
func FuzzMatchQueue(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add([]byte{0x07, 0xff, 0x03}, uint64(42))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint64(7))
	f.Fuzz(func(t *testing.T, plan []byte, seed uint64) {
		const (
			perStream = 3
			nTags     = 3
		)
		senders := []int{0, 2}
		tags := []int{5, 11, 1 << 19} // user tags, including a large one
		type stream struct{ src, tag int }
		streams := make([]stream, 0, len(senders)*nTags)
		for _, s := range senders {
			for _, tg := range tags {
				streams = append(streams, stream{s, tg})
			}
		}
		total := len(streams) * perStream

		// Derive the receive plan from the fuzz input: a permutation of
		// one exact receive per message, with the first W entries
		// demoted to wildcards.
		rng := seed ^ 0x9e3779b97f4a7c15
		next := func() uint64 {
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		for _, b := range plan {
			rng ^= uint64(b)
			next()
		}
		order := make([]stream, 0, total)
		for _, s := range streams {
			for k := 0; k < perStream; k++ {
				order = append(order, s)
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		wild := 0
		if len(plan) > 0 {
			wild = int(plan[0]) % (total + 1)
		}

		cfg, err := machine.Get("perlmutter-cpu")
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCommSharded(cfg, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.World().SetChaos(runtime.Chaos{
			Perturb: &sim.Perturbation{Seed: seed, MaxJitter: 2 * sim.Microsecond},
		})

		const ackTag = 977
		encode := func(src, tag, k int) []byte {
			buf := make([]byte, 24)
			binary.LittleEndian.PutUint64(buf[0:], uint64(src))
			binary.LittleEndian.PutUint64(buf[8:], uint64(tag))
			binary.LittleEndian.PutUint64(buf[16:], uint64(k))
			return buf
		}
		var errs []string
		failf := func(format string, args ...any) {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
		// seen[stream] collects sequence numbers in match order, exact
		// receives first (they are all posted before any wildcard).
		exactSeen := map[stream][]int{}
		wildSeen := map[stream][]int{}
		drained := true
		err = c.Launch(func(r *Rank) {
			me := r.Rank()
			if me != 1 {
				for _, tg := range tags {
					for k := 0; k < perStream; k++ {
						r.Isend(1, tg, encode(me, tg, k))
					}
				}
				// Hold the barrier until rank 1 is done receiving so
				// its pure wildcards can never match a barrier message.
				r.Recv(1, ackTag)
				r.Barrier()
				drained = drained && r.PendingUnexpected() == 0 &&
					r.PendingPosted() == 0 && r.PendingOutOfOrder() == 0
				return
			}
			record := func(dst map[stream][]int, q *Request) {
				if len(q.Data) != 24 {
					failf("payload size %d, want 24", len(q.Data))
					return
				}
				src := int(binary.LittleEndian.Uint64(q.Data[0:]))
				tag := int(binary.LittleEndian.Uint64(q.Data[8:]))
				k := int(binary.LittleEndian.Uint64(q.Data[16:]))
				if src != q.Src || tag != q.Tag {
					failf("payload says (%d,%d), envelope says (%d,%d)", src, tag, q.Src, q.Tag)
					return
				}
				dst[stream{src, tag}] = append(dst[stream{src, tag}], k)
			}
			var exacts []*Request
			for _, s := range order[wild:] {
				q := r.Irecv(s.src, s.tag)
				exacts = append(exacts, q)
			}
			for i := 0; i < wild; i++ {
				record(wildSeen, r.Recv(AnySource, AnyTag))
			}
			r.Waitall(exacts)
			for i, q := range exacts {
				want := order[wild:][i]
				if q.Src != want.src || q.Tag != want.tag {
					failf("exact recv %d completed as (%d,%d), posted (%d,%d)",
						i, q.Src, q.Tag, want.src, want.tag)
				}
				record(exactSeen, q)
			}
			for _, dst := range []int{0, 2} {
				r.Isend(dst, ackTag, nil)
			}
			r.Barrier()
			drained = drained && r.PendingUnexpected() == 0 &&
				r.PendingPosted() == 0 && r.PendingOutOfOrder() == 0
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range errs {
			t.Error(e)
		}
		if !drained {
			t.Error("matching queues not drained after final barrier")
		}
		for _, s := range streams {
			ex, wl := exactSeen[s], wildSeen[s]
			for i, k := range ex {
				if k != i {
					t.Errorf("stream (%d,%d): exact receives saw %v, want 0..%d in order",
						s.src, s.tag, ex, len(ex)-1)
					break
				}
			}
			for i := 1; i < len(wl); i++ {
				if wl[i] <= wl[i-1] {
					t.Errorf("stream (%d,%d): wildcard receives overtook: %v", s.src, s.tag, wl)
					break
				}
			}
			if len(ex)+len(wl) != perStream {
				t.Errorf("stream (%d,%d): matched %d+%d messages, want %d",
					s.src, s.tag, len(ex), len(wl), perStream)
			}
		}
	})
}
