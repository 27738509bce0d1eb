package comm

import (
	"bytes"
	"fmt"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
)

// lazyKinds are the transports whose receive memory is a lazy
// runtime.Mem, the shmem heap, each with a machine that calibrates it.
var lazyKinds = []struct {
	kind    Kind
	machine string
}{
	{Shmem, "perlmutter-gpu"},
	{StreamTriggered, "perlmutter-gpu"},
	{MemChannel, "perlmutter-cpu"},
	{Notified, "perlmutter-cpu"},
	{OneSided, "perlmutter-cpu"},
}

// dataAllocated reports whether rank's heap holds its data region:
// until it does, every read of the region is the shared blank view.
func dataAllocated(tr Transport, rank int) bool {
	return !runtime.IsBlank(tr.(*shmemT).j.PE(rank).View(0, 1))
}

func newLazy(t *testing.T, kind Kind, name string, spec Spec) Transport {
	t.Helper()
	m, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Machine, spec.Kind = m, kind
	tr, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*5 + 3)
	}
	return b
}

// TestLazyHeapDelivery runs the streamed-delivery protocol and a
// blank halo exchange on every lazy transport. Blank deliveries or
// exchanges alone never allocate the receiver's data region and read
// back as zeros. A real delivery after blank ones allocates it, and
// the receiver still finds the signals of the earlier blank slots.
func TestLazyHeapDelivery(t *testing.T) {
	const slots, stride = 3, 256
	for _, lk := range lazyKinds {
		t.Run(lk.kind.String(), func(t *testing.T) {
			tr := newLazy(t, lk.kind, lk.machine, Spec{Ranks: 2, ExchangeSlots: 1, SlotBytes: stride})
			var halos [2][]byte
			err := tr.Launch(func(ep Endpoint) {
				peer := 1 - ep.Rank()
				for epoch := 0; epoch < 2; epoch++ {
					in := ep.Exchange(epoch, []Msg{{Peer: peer, Data: runtime.Blank(stride)}},
						[]Expect{{Peer: peer, Bytes: stride}})
					halos[ep.Rank()] = in[0]
				}
			})
			if err != nil {
				t.Fatalf("exchange: %v", err)
			}
			for rank, h := range halos {
				if !bytes.Equal(h, make([]byte, stride)) {
					t.Errorf("exchange: rank %d halo reads %v", rank, h[:8])
				}
				if dataAllocated(tr, rank) {
					t.Errorf("exchange: blank halos allocated rank %d's data region", rank)
				}
			}
			for _, realLast := range []bool{false, true} {
				tr := newLazy(t, lk.kind, lk.machine, Spec{Ranks: 2, StreamSlots: []int{0, slots}, SlotBytes: stride})
				fail := make(chan string, slots)
				err := tr.Launch(func(ep Endpoint) {
					switch ep.Rank() {
					case 0:
						for s := 0; s < slots; s++ {
							data := runtime.Blank(stride)
							if realLast && s == slots-1 {
								data = pattern(stride)
							}
							ep.Deliver(1, s, data)
						}
						ep.Quiet()
						ep.Barrier()
					case 1:
						ep.Barrier() // landed, except where Quiet does not wait (WaitAnySlot waits)
						for got := 0; got < slots; got++ {
							slot, data := ep.WaitAnySlot()
							want := make([]byte, stride)
							if realLast && slot == slots-1 {
								want = pattern(stride)
							}
							if !bytes.Equal(data, want) {
								fail <- fmt.Sprintf("slot %d reads %v", slot, data[:8])
							}
						}
					}
				})
				if err != nil {
					t.Fatalf("realLast=%v: %v", realLast, err)
				}
				close(fail)
				for msg := range fail {
					t.Errorf("realLast=%v: %s", realLast, msg)
				}
				if allocated := dataAllocated(tr, 1); allocated != realLast {
					t.Errorf("realLast=%v: receiver data region allocated = %v", realLast, allocated)
				}
			}
		})
	}
}

// TestLazyHeapAtomics checks remote CAS and FetchAdd on a PGAS
// streamed-delivery heap: on a data word they allocate the region and
// act as on an eager heap, on a signal word they leave it alone, and
// SharedBytes shows both.
func TestLazyHeapAtomics(t *testing.T) {
	const stride = 32
	for _, lk := range lazyKinds {
		t.Run(lk.kind.String(), func(t *testing.T) {
			spec := Spec{Ranks: 2, StreamSlots: []int{0, 2}, SlotBytes: stride}
			size, sigBase := heapLayout(spec)
			tr := newLazy(t, lk.kind, lk.machine, spec)
			sigOff := sigBase + 8
			var casOld, sigOld, addOld, addAgain uint64
			var sigOnlyAllocated bool
			err := tr.Launch(func(ep Endpoint) {
				if ep.Rank() != 0 {
					return
				}
				sigOld = ep.FetchAdd(1, sigOff, 2)
				sigOnlyAllocated = dataAllocated(tr, 1)
				casOld = ep.CAS(1, 0, 0, 7)
				addOld = ep.FetchAdd(1, 8, 5)
				addAgain = ep.FetchAdd(1, 8, 5)
			})
			if err != nil {
				t.Fatal(err)
			}
			if sigOnlyAllocated {
				t.Error("an atomic on a signal word allocated the data region")
			}
			if sigOld != 0 || casOld != 0 || addOld != 0 || addAgain != 5 {
				t.Errorf("atomics returned sig=%d cas=%d add=%d,%d, want 0 0 0,5", sigOld, casOld, addOld, addAgain)
			}
			heap := tr.SharedBytes(1)
			if len(heap) != size || heap[0] != 7 || heap[8] != 10 || heap[sigOff] != 2 {
				t.Errorf("shared heap: len %d, word0 %d, word1 %d, signal %d; want len %d, 7, 10, 2",
					len(heap), heap[0], heap[8], heap[sigOff], size)
			}
			if got := tr.AtomicCount(); got != 4 {
				t.Errorf("AtomicCount = %d, want 4", got)
			}
		})
	}
}
