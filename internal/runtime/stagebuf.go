package runtime

import (
	"sync"
	"unsafe"
)

// Payload staging. A put stages the caller's bytes at issue time (the
// origin buffer may be legally reused once the local completion lands,
// which can precede the remote delivery event in real execution order)
// and lands the staged copy in the target's memory from the delivery
// closure. Only real bytes are staged: a blank payload (see Blank)
// carries a length and nothing else, so Stage returns nil for it and
// Land of nil writes nothing. The simulated cost of a message depends
// on its length alone, so both forms charge identically.
//
// The staging copies come from a pool, which removes the dominant
// allocation stream of the put workloads; it is safe because a
// released buffer is never read again and every borrow overwrites the
// full length it asked for. Borrow/Release are concurrency-safe:
// delivery closures run on the target group's engine, which may be a
// different goroutine than the origin's when window workers > 1.
var stagePool sync.Pool

// blankBytes backs every blank payload. It is never written, so its
// pages are never touched and never become resident. 4 MiB covers the
// largest full-scale sweep message and the largest Fig-10 volume.
var blankBytes [4 << 20]byte

// Blank returns an n-byte, read-only, all-zero payload for traffic
// whose timing is all that matters: transports charge its length but
// neither stage nor land its bytes, and two-sided receivers get the
// same read-only view back. Two contracts follow. Nobody may write to
// a blank payload or to a receive that carries one: that would make
// every later blank payload non-zero. And a one-sided put of a blank
// payload leaves the target's old bytes in place instead of zeroing
// them, so blank payloads are only for traffic whose data nobody
// reads. Above the size of the shared zero array Blank returns
// ordinary zeroed bytes, which is still correct, just copied.
func Blank(n int) []byte {
	if n <= len(blankBytes) {
		return blankBytes[:n:n]
	}
	return make([]byte, n)
}

// IsBlank reports whether b is a non-empty view of the shared zero
// array (a Blank payload or a sub-slice of one).
func IsBlank(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	base := uintptr(unsafe.Pointer(&blankBytes[0]))
	return p >= base && p < base+uintptr(len(blankBytes))
}

// Stage copies data into a pooled buffer for a later Land, or returns
// nil when there are no bytes to move (a blank or empty payload).
func Stage(data []byte) []byte {
	if len(data) == 0 || IsBlank(data) {
		return nil
	}
	buf := BorrowBuf(len(data))
	copy(buf, data)
	return buf
}

// Land writes a Stage result into dst and releases it. Landing nil (a
// blank payload) is a no-op: dst keeps the bytes it had.
func Land(dst, staged []byte) {
	if staged == nil {
		return
	}
	copy(dst, staged)
	ReleaseBuf(staged)
}

// BorrowBuf returns a length-n byte slice whose contents are
// unspecified — the caller must overwrite all n bytes. Release it
// with ReleaseBuf once no reference escapes.
func BorrowBuf(n int) []byte {
	if v := stagePool.Get(); v != nil {
		b := v.(*[]byte)
		if cap(*b) >= n {
			return (*b)[:n]
		}
		// Too small for this borrower: drop it rather than cycling
		// undersized buffers through a growing workload.
	}
	return make([]byte, n)
}

// ReleaseBuf returns a buffer to the pool. The caller must not touch
// the slice afterwards. Buffers that escape to user code (two-sided
// receives alias the staged send buffer, for example) must never be
// released.
func ReleaseBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	stagePool.Put(&b)
}
