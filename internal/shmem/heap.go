package shmem

import (
	"encoding/binary"

	"msgroofline/internal/runtime"
)

// heap is one PE's symmetric heap: a data region [0, sigBase)
// followed by signal words [sigBase, size). The signal words exist
// from the start. The data region is allocated only when a real
// payload lands or something reads or writes it directly, so a run
// that moves blank payloads (runtime.Blank) never holds its data
// memory. Until then every data byte is zero, which is exactly what a
// fresh heap holds.
//
// All accesses to one PE's heap run on that PE's engine (delivery
// closures, remote-atomic bodies and the PE's own contexts), so the
// allocation needs no lock.
type heap struct {
	size, sigBase int
	mem           []byte // the whole heap once allocated, nil before
	sig           []byte // signal words; aliases mem[sigBase:] once mem exists
}

func newHeap(size, sigBase int) heap {
	return heap{size: size, sigBase: sigBase, sig: make([]byte, size-sigBase)}
}

// bytes returns the whole heap, allocating the data region on first
// use and carrying over the signal words that landed before it.
func (h *heap) bytes() []byte {
	if h.mem == nil {
		h.mem = make([]byte, h.size)
		copy(h.mem[h.sigBase:], h.sig)
		h.sig = h.mem[h.sigBase:]
	}
	return h.mem
}

// word returns the 8 heap bytes at off. Signal words never force the
// data region into existence.
func (h *heap) word(off int) []byte {
	if off >= h.sigBase {
		return h.sig[off-h.sigBase : off-h.sigBase+8]
	}
	return h.bytes()[off : off+8]
}

func (h *heap) load(off int) uint64 { return binary.LittleEndian.Uint64(h.word(off)) }

func (h *heap) store(off int, v uint64) { binary.LittleEndian.PutUint64(h.word(off), v) }

// land writes a runtime.Stage result at off. A blank payload stages to
// nil and leaves the heap, allocated or not, as it was.
func (h *heap) land(off int, staged []byte) {
	if staged != nil {
		runtime.Land(h.bytes()[off:], staged)
	}
}

// view returns heap bytes [off, off+n) for reading. Before the data
// region exists they are all zero, and the read-only zero view of
// runtime.Blank stands in for them.
func (h *heap) view(off, n int) []byte {
	if h.mem == nil && off+n <= h.sigBase {
		return runtime.Blank(n)
	}
	return h.bytes()[off : off+n]
}
