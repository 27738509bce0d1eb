package comm

import (
	"encoding/binary"
	"slices"

	"msgroofline/internal/runtime"
)

// slotHeap is a rank's symmetric heap on the transports that keep it
// in this package (stream-triggered and memory-channel, see offloadT):
// a data region [0, sigBase) followed by signal words [sigBase, size).
// The signal words exist from the start. In streamed-delivery mode the
// data region is allocated only when a real payload lands or something
// reads or writes it directly, so a sweep that moves blank payloads
// (runtime.Blank) never holds its n×b slot memory. Until then every
// data byte is zero, which is exactly what a fresh heap holds.
//
// All accesses to one rank's heap run on that rank's engine (delivery
// closures, remote-atomic bodies and the rank's own process), so the
// allocation needs no lock.
type slotHeap struct {
	size, sigBase int
	mem           []byte // the whole heap once allocated, nil before
	sig           []byte // signal words; aliases mem[sigBase:] once mem exists
}

// heapLayout sizes one rank's symmetric heap for the spec's mode and
// places its signal words at [sigBase, size): parity-double-buffered
// exchange slots followed by 2 parities x K signals, streamed-delivery
// slots followed by one signal per slot and 64 spare bytes, or a flat
// shared heap with no signal words. Every rank's heap has the same
// layout, on the slot-heap transports and on shmem alike.
func heapLayout(spec Spec) (size, sigBase int) {
	switch {
	case spec.ExchangeSlots > 0:
		sigBase = 2 * spec.ExchangeSlots * spec.SlotBytes
		return sigBase + 2*spec.ExchangeSlots*8, sigBase
	case spec.StreamSlots != nil:
		maxSlots := slices.Max(spec.StreamSlots)
		sigBase = spec.SlotBytes * maxSlots
		return sigBase + 8*maxSlots + 64, sigBase
	}
	return spec.SharedBytes, spec.SharedBytes
}

// newSlotHeap lays out one rank's heap with heapLayout. Only the
// streamed-delivery data region is allocated lazily; exchange epochs
// and shared heaps hand their bytes out directly.
func newSlotHeap(spec Spec) *slotHeap {
	size, sigBase := heapLayout(spec)
	h := &slotHeap{size: size, sigBase: sigBase}
	if spec.StreamSlots != nil {
		h.sig = make([]byte, size-sigBase)
	} else {
		h.bytes()
	}
	return h
}

// bytes returns the whole heap, allocating the data region on first
// use and carrying over the signal words that landed before it.
func (h *slotHeap) bytes() []byte {
	if h.mem == nil {
		h.mem = make([]byte, h.size)
		copy(h.mem[h.sigBase:], h.sig)
		h.sig = h.mem[h.sigBase:]
	}
	return h.mem
}

// word returns the 8 heap bytes at off. Signal words never force the
// data region into existence.
func (h *slotHeap) word(off int) []byte {
	if off >= h.sigBase {
		return h.sig[off-h.sigBase : off-h.sigBase+8]
	}
	return h.bytes()[off : off+8]
}

func (h *slotHeap) load(off int) uint64 { return binary.LittleEndian.Uint64(h.word(off)) }

func (h *slotHeap) store(off int, v uint64) { binary.LittleEndian.PutUint64(h.word(off), v) }

// land writes a runtime.Stage result at off. A blank payload stages to
// nil and leaves the heap, allocated or not, as it was.
func (h *slotHeap) land(off int, staged []byte) {
	if staged != nil {
		runtime.Land(h.bytes()[off:], staged)
	}
}

// view returns heap bytes [off, off+n) for reading. Before the data
// region exists they are all zero, and the read-only zero view of
// runtime.Blank stands in for them.
func (h *slotHeap) view(off, n int) []byte {
	if h.mem == nil && off+n <= h.sigBase {
		return runtime.Blank(n)
	}
	return h.bytes()[off : off+n]
}
