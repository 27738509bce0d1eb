package comm

import (
	"bytes"
	"fmt"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
)

// lazyKinds are the transports whose heaps are slotHeaps, each with a
// machine that calibrates it.
var lazyKinds = []struct {
	kind    Kind
	machine string
}{
	{StreamTriggered, "perlmutter-gpu"},
	{MemChannel, "perlmutter-cpu"},
}

func heapOf(tr Transport, rank int) *slotHeap {
	if t, ok := tr.(*offloadT); ok {
		return t.pes[rank].heap
	}
	panic(fmt.Sprintf("comm: %T has no slot heap", tr))
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

// TestSlotHeapLazyData checks the heap on its own: signal words work
// before the data region exists, blank landings and reads leave it
// unallocated and read as zeros, and the first real landing allocates
// it while keeping every signal word that landed earlier.
func TestSlotHeapLazyData(t *testing.T) {
	const slots, stride = 4, 64
	h := newSlotHeap(Spec{StreamSlots: []int{0, slots}, SlotBytes: stride})
	sig := func(slot int) int { return h.sigBase + 8*slot }
	h.store(sig(0), 1)
	h.land(0, runtime.Stage(runtime.Blank(stride)))
	if v := h.view(0, stride); !bytes.Equal(v, make([]byte, stride)) || !runtime.IsBlank(v) {
		t.Fatalf("unwritten slot reads %v, want the blank zero view", v)
	}
	if h.mem != nil {
		t.Fatal("blank landing and read allocated the data region")
	}
	h.store(sig(1), 1)
	h.land(stride, runtime.Stage(pattern(stride)))
	if h.mem == nil {
		t.Fatal("real landing did not allocate the data region")
	}
	if h.load(sig(0)) != 1 || h.load(sig(1)) != 1 || h.load(sig(2)) != 0 {
		t.Fatalf("signal words after allocation: %d %d %d, want 1 1 0",
			h.load(sig(0)), h.load(sig(1)), h.load(sig(2)))
	}
	if !bytes.Equal(h.view(stride, stride), pattern(stride)) {
		t.Fatal("real payload not visible after landing")
	}
	if !bytes.Equal(h.view(0, stride), make([]byte, stride)) || runtime.IsBlank(h.view(0, stride)) {
		t.Fatal("slot 0 must read as heap-backed zeros once the data region exists")
	}
}

// TestLazyHeapDelivery runs the streamed-delivery protocol on both
// slot-heap transports. Blank deliveries alone never allocate the
// receiver's data region and read back as zeros. A real delivery
// after blank ones allocates it, and the receiver still finds the
// signals of the earlier blank slots.
func TestLazyHeapDelivery(t *testing.T) {
	const slots, stride = 3, 256
	for _, lk := range lazyKinds {
		t.Run(lk.kind.String(), func(t *testing.T) {
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
						ep.Barrier() // every delivery has landed
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
				if allocated := heapOf(tr, 1).mem != nil; allocated != realLast {
					t.Errorf("realLast=%v: receiver data region allocated = %v", realLast, allocated)
				}
			}
		})
	}
}

// TestLazyHeapAtomics checks remote CAS and FetchAdd on a
// streamed-delivery heap: on a data word they allocate the region and
// act as on an eager heap, on a signal word they leave it alone, and
// SharedBytes shows both.
func TestLazyHeapAtomics(t *testing.T) {
	const stride = 32
	for _, lk := range lazyKinds {
		t.Run(lk.kind.String(), func(t *testing.T) {
			tr := newLazy(t, lk.kind, lk.machine, Spec{Ranks: 2, StreamSlots: []int{0, 2}, SlotBytes: stride})
			sigOff := heapOf(tr, 1).sigBase + 8
			var casOld, sigOld, addOld, addAgain uint64
			var sigOnlyAllocated bool
			err := tr.Launch(func(ep Endpoint) {
				if ep.Rank() != 0 {
					return
				}
				sigOld = ep.FetchAdd(1, sigOff, 2)
				sigOnlyAllocated = heapOf(tr, 1).mem != nil
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
			if len(heap) != heapOf(tr, 1).size || heap[0] != 7 || heap[8] != 10 || heap[sigOff] != 2 {
				t.Errorf("shared heap: len %d, word0 %d, word1 %d, signal %d; want len %d, 7, 10, 2",
					len(heap), heap[0], heap[8], heap[sigOff], heapOf(tr, 1).size)
			}
			if got := tr.AtomicCount(); got != 4 {
				t.Errorf("AtomicCount = %d, want 4", got)
			}
		})
	}
}
