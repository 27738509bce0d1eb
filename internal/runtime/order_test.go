package runtime

import (
	"slices"
	"testing"
)

// permute calls f with every permutation of 0..n-1 (Heap's algorithm).
func permute(n int, f func([]int)) {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			f(a)
			return
		}
		for i := 0; i < k-1; i++ {
			gen(k - 1)
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
		gen(k - 1)
	}
	gen(n)
}

// TestOrderLandsInSendOrder feeds every wire order of up to 6 arrivals
// to a resequencer. After each arrival exactly the longest arrived
// prefix of the stream has landed, in send order, and Pending counts
// the rest; the stash exists only while it holds an arrival. At the
// end every value has landed and none out of sequence.
func TestOrderLandsInSendOrder(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 2)
	for n := 0; n <= 6; n++ {
		permute(n, func(wire []int) {
			o := NewOrder[int](w)
			var got []int
			arrived := make([]bool, n)
			prefix := 0
			for i, seq := range wire {
				o.Arrive(uint64(seq), seq, func(v int) { got = append(got, v) })
				arrived[seq] = true
				for prefix < n && arrived[prefix] {
					prefix++
				}
				if len(got) != prefix || prefix > 0 && got[prefix-1] != prefix-1 {
					t.Fatalf("wire %v: after %d arrivals landed %v, want 0..%d", wire, i+1, got, prefix-1)
				}
				if p := o.Pending(); p != i+1-prefix {
					t.Fatalf("wire %v: after %d arrivals Pending() = %d, want %d", wire, i+1, p, i+1-prefix)
				}
				if (o.stash != nil) != (o.Pending() > 0) {
					t.Fatalf("wire %v: after %d arrivals stash made=%v with %d pending", wire, i+1, o.stash != nil, o.Pending())
				}
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("wire %v: landed %v, want send order", wire, got)
				}
			}
			if landed, mis, _, _ := o.Landed(); landed != uint64(n) || mis {
				t.Fatalf("wire %v: Landed() = %d, misordered %v; want %d, false", wire, landed, mis, n)
			}
		})
	}
}

// TestOrderUnorderedLandsInWireOrder sets the world's ordering switch:
// every arrival lands at once, in wire order, nothing is stashed, and
// the first value out of sequence is recorded as (seq, pos). A memory
// channel fed the same wire order reports the same record through
// Channel.Applied.
func TestOrderUnorderedLandsInWireOrder(t *testing.T) {
	cfg, tp := channelParams(t, "perlmutter-cpu")
	w, err := NewWorldSharded(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.SetChaos(Chaos{Unordered: true})
	mem := NewMem(8, 8)
	for n := 0; n <= 6; n++ {
		permute(n, func(wire []int) {
			o := NewOrder[int](w)
			c := NewChannel(w.Endpoint(0), 1, tp)
			var got []int
			for _, seq := range wire {
				o.Arrive(uint64(seq), seq, func(v int) { got = append(got, v) })
				if o.Pending() != 0 || o.stash != nil {
					t.Fatalf("wire %v: unordered resequencer stashed %d", wire, o.Pending())
				}
				r := w.Endpoint(0).putRec(Put{Dst: 1, Mem: &mem}, nil)
				r.chn, r.seq = c, uint64(seq)
				c.arrive(r, 0)
			}
			if !slices.Equal(got, wire) {
				t.Fatalf("wire %v: landed %v, want wire order", wire, got)
			}
			want := [4]uint64{uint64(n), 0, 0, 0}
			for i, seq := range wire {
				if seq != i {
					want = [4]uint64{uint64(n), 1, uint64(seq), uint64(i)}
					break
				}
			}
			landed, mis, seq, pos := o.Landed()
			if got := [4]uint64{landed, b2u(mis), seq, pos}; got != want {
				t.Fatalf("wire %v: Landed() = %v, want %v", wire, got, want)
			}
			applied, mis, seq, pos := c.Applied()
			if got := [4]uint64{applied, b2u(mis), seq, pos}; got != want {
				t.Fatalf("wire %v: Channel.Applied() = %v, want %v", wire, got, want)
			}
		})
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
