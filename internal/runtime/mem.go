package runtime

import "encoding/binary"

// Mem is one rank's remotely accessible memory, an MPI window or a
// SHMEM symmetric heap: a data region [0, sigBase) followed by signal
// words [sigBase, size), none in a window (sigBase = size). The signal
// words exist from the start; the data region is made only when a real
// payload lands or something writes it or asks for all of it, so a run
// that moves blank payloads (Blank) never holds it, and until then
// every data byte reads as zero, as fresh memory does.
//
// All accesses to one rank's Mem run on that rank's engine (put
// landings, remote-atomic service and the rank's own processes), or in
// setup code before the world runs, so making it needs no lock. Only
// Size, which never changes, may be read from any engine.
type Mem struct {
	mem           []byte // the whole region once made, nil before
	sig           []byte // signal words; aliases mem[sigBase:] once mem exists
	size, sigBase int
}

// NewMem returns a size-byte Mem whose signal words start at sigBase.
func NewMem(size, sigBase int) Mem {
	return Mem{sig: make([]byte, size-sigBase), size: size, sigBase: sigBase}
}

// Size returns the region's length in bytes.
func (m *Mem) Size() int { return m.size }

// Bytes returns the whole region, making the data region on first use
// and carrying over the signal words that landed before it.
func (m *Mem) Bytes() []byte {
	if m.mem == nil {
		m.mem = make([]byte, m.size)
		copy(m.mem[m.sigBase:], m.sig)
		m.sig = m.mem[m.sigBase:]
	}
	return m.mem
}

// View returns bytes [off, off+n) for reading. Before the data region
// exists they are all zero, and the read-only zero view of Blank
// stands in for them.
func (m *Mem) View(off, n int) []byte {
	if m.mem == nil && off+n <= m.sigBase {
		return Blank(n)
	}
	return m.word(off, n)
}

// word returns the n bytes at off, making the data region only when
// they reach below the signal words.
func (m *Mem) word(off, n int) []byte {
	if off >= m.sigBase && m.mem == nil {
		return m.sig[off-m.sigBase : off-m.sigBase+n]
	}
	return m.Bytes()[off : off+n]
}

// Load reads the little-endian uint64 at off. It never makes the data
// region: an unmade word reads as zero.
func (m *Mem) Load(off int) uint64 { return binary.LittleEndian.Uint64(m.View(off, 8)) }

// Store writes v as a little-endian uint64 at off. A signal word never
// forces the data region into existence.
func (m *Mem) Store(off int, v uint64) { binary.LittleEndian.PutUint64(m.word(off, 8), v) }

// FirstEqual returns the index of the first offset in offs whose word
// equals val, skipping those with mask[i] set (mask may be nil), or -1.
func (m *Mem) FirstEqual(offs []int, mask []bool, val uint64) int {
	for i, off := range offs {
		if (mask == nil || !mask[i]) && m.Load(off) == val {
			return i
		}
	}
	return -1
}

// Land writes a Stage result at off. A blank payload stages to nil and
// leaves the memory, made or not, as it was; a landing in the signal
// words never makes the data region.
func (m *Mem) Land(off int, staged []byte) {
	if staged != nil {
		Land(m.word(off, len(staged)), staged)
	}
}
