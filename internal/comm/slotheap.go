package comm

import (
	"encoding/binary"

	"msgroofline/internal/runtime"
)

// slotHeap is a rank's symmetric heap on the transports that keep it
// in this package (stream-triggered, memory-channel): a data region
// [0, sigBase) followed by signal words [sigBase, size). The signal
// words exist from the start. In streamed-delivery mode the data
// region is allocated only when a real payload lands or something
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

// newSlotHeap lays out one rank's heap for the spec's mode:
// parity-double-buffered exchange slots, streamed-delivery slots, or a
// flat shared heap. Every rank's heap has the same layout. Only the
// streamed-delivery data region is allocated lazily; exchange epochs
// and shared heaps hand their bytes out directly.
func newSlotHeap(spec Spec) *slotHeap {
	var h *slotHeap
	switch {
	case spec.ExchangeSlots > 0:
		sigBase := 2 * spec.ExchangeSlots * spec.SlotBytes
		h = &slotHeap{size: sigBase + 2*spec.ExchangeSlots*8, sigBase: sigBase}
	case spec.StreamSlots != nil:
		maxSlots := 0
		for _, n := range spec.StreamSlots {
			if n > maxSlots {
				maxSlots = n
			}
		}
		sigBase := spec.SlotBytes * maxSlots
		h = &slotHeap{size: sigBase + 8*maxSlots + 64, sigBase: sigBase}
		h.sig = make([]byte, h.size-sigBase)
		return h
	default:
		h = &slotHeap{size: spec.SharedBytes, sigBase: spec.SharedBytes}
	}
	h.bytes()
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
