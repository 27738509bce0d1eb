package shmem

import (
	"bytes"
	"testing"

	"msgroofline/internal/runtime"
)

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
	h := newHeap(slots*stride+8*slots+64, slots*stride)
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
