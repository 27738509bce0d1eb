package mpi

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// TestRequestSurvivesEnvelopeReuse checks that pooled envelopes never
// reach a completed request: its Data, Src, Tag and At stay as they
// were at completion while later traffic reuses the envelopes that
// carried it. It covers a receive matched on arrival (posted first), one
// matched from the unexpected queue, and same- and cross-group senders.
func TestRequestSurvivesEnvelopeReuse(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 4)
	if c.World().GroupOf(0) != c.World().GroupOf(1) || c.World().GroupOf(0) == c.World().GroupOf(3) {
		t.Fatal("want ranks 0 and 1 in one node group and rank 3 in another")
	}
	type snapshot struct {
		data     string
		src, tag int
		at       sim.Time
	}
	kept := map[string]*Request{}
	want := map[string]snapshot{}
	keep := func(name string, q *Request) {
		kept[name] = q
		want[name] = snapshot{string(q.Data), q.Src, q.Tag, q.At}
	}
	err := c.Launch(func(r *Rank) {
		switch r.Rank() {
		case 0, 1:
			for i := 0; i < 40; i++ {
				r.Send(3, i%3, []byte(fmt.Sprintf("from %d #%d", r.Rank(), i)))
			}
			if r.Rank() == 1 {
				r.Send(0, 9, []byte("same group"))
			} else {
				keep("same group", r.Recv(1, 9))
			}
		case 3:
			// Posted before the first message lands.
			keep("from 0 #0", r.Recv(0, 0))
			// Let rank 1's messages queue as unexpected, then match one.
			r.Compute(sim.FromNanoseconds(50000))
			keep("from 1 #1", r.Recv(1, 1))
			for i := 1; i < 40; i++ {
				r.Recv(0, i%3)
			}
			for i := 0; i < 40; i++ {
				if i != 1 {
					r.Recv(1, i%3)
				}
			}
		}
		r.Barrier()
		// Every rank now sends real bytes of the same length on more
		// envelopes than its free list holds, so the ones its receives
		// returned are reused.
		for i := 0; i < 2*maxFreeEnvelopes; i++ {
			r.Send((r.Rank()+1)%4, 5, []byte(fmt.Sprintf("ovr %d #%02d", r.Rank(), i%100)))
		}
		for i := 0; i < 2*maxFreeEnvelopes; i++ {
			r.Recv((r.Rank()+3)%4, 5)
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("kept %d requests, want 3", len(kept))
	}
	for name, q := range kept {
		if want[name].data != name {
			t.Fatalf("receive %q matched %q", name, want[name].data)
		}
		if got := (snapshot{string(q.Data), q.Src, q.Tag, q.At}); got != want[name] {
			t.Fatalf("receive %q changed after completion: %+v, was %+v", name, got, want[name])
		}
	}
}

// TestMessagePathPoolsAcrossWorkers drives every pooled record of the
// two-sided path (flight, landing, envelope) with cross-group traffic
// in both directions at once, on four concurrent pool workers, and
// checks that the payloads and event digest match the single-worker
// run. Run it under -race to check the ownership rule: each free list
// is touched only from its owner's engine or the serial barrier.
func TestMessagePathPoolsAcrossWorkers(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	cfg, err := machine.Get("perlmutter-cpu")
	if err != nil {
		t.Fatal(err)
	}
	const ranks, rounds = 128, 12
	type result struct {
		recv   [ranks][]byte
		digest uint64
	}
	run := func(shards int) *result {
		c, err := NewCommSharded(cfg, ranks, shards)
		if err != nil {
			t.Fatal(err)
		}
		res := &result{}
		err = c.Launch(func(r *Rank) {
			me := r.Rank()
			peer := (me + ranks/2) % ranks
			for round := 0; round < rounds; round++ {
				msg := []byte{byte(me), byte(round), 'm', 's', 'g'}
				reqs := []*Request{r.Irecv(peer, round), r.Isend(peer, round, msg)}
				r.Waitall(reqs)
				res.recv[me] = append(res.recv[me], reqs[0].Data...)
				r.Compute(sim.FromNanoseconds(float64(100 * (1 + (me+round)%5))))
				if round%4 == 3 {
					r.Barrier()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		res.digest = c.Digest()
		return res
	}
	one, two := run(1), run(2)
	for me := 0; me < ranks; me++ {
		peer := (me + ranks/2) % ranks
		for round := 0; round < rounds; round++ {
			if got := one.recv[me][5*round : 5*round+5]; !bytes.Equal(got, []byte{byte(peer), byte(round), 'm', 's', 'g'}) {
				t.Fatalf("rank %d round %d received %v", me, round, got)
			}
		}
		if !bytes.Equal(one.recv[me], two.recv[me]) {
			t.Fatalf("rank %d differs between 1 and 2 workers", me)
		}
	}
	if one.digest != two.digest {
		t.Fatalf("digest %x at 1 worker, %x at 2", one.digest, two.digest)
	}
}
