package runtime

import (
	"bytes"
	"testing"
)

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*5 + 3)
	}
	return b
}

// TestMemLazyData checks a slot heap's Mem on its own: signal words
// work before the data region exists, blank landings and reads leave it
// unmade and read as zeros, and the first real landing makes it while
// keeping every signal word that landed earlier. A window's Mem, which
// has no signal words, is made by its first store.
func TestMemLazyData(t *testing.T) {
	const slots, stride = 4, 64
	m := NewMem(slots*stride+8*slots+64, slots*stride)
	sig := func(slot int) int { return m.sigBase + 8*slot }
	m.Store(sig(0), 1)
	m.Land(0, Stage(Blank(stride)))
	if v := m.View(0, stride); !bytes.Equal(v, make([]byte, stride)) || !IsBlank(v) {
		t.Fatalf("unwritten slot reads %v, want the blank zero view", v)
	}
	if m.Load(8) != 0 || m.mem != nil {
		t.Fatal("blank landing and reads made the data region")
	}
	m.Store(sig(1), 1)
	m.Land(stride, Stage(pattern(stride)))
	if m.mem == nil {
		t.Fatal("real landing did not make the data region")
	}
	if m.Load(sig(0)) != 1 || m.Load(sig(1)) != 1 || m.Load(sig(2)) != 0 {
		t.Fatalf("signal words after allocation: %d %d %d, want 1 1 0",
			m.Load(sig(0)), m.Load(sig(1)), m.Load(sig(2)))
	}
	if !bytes.Equal(m.View(stride, stride), pattern(stride)) {
		t.Fatal("real payload not visible after landing")
	}
	if !bytes.Equal(m.View(0, stride), make([]byte, stride)) || IsBlank(m.View(0, stride)) {
		t.Fatal("slot 0 must read as heap-backed zeros once the data region exists")
	}
	win := NewMem(16, 16)
	if !IsBlank(win.View(8, 8)) || win.Load(8) != 0 || win.mem != nil {
		t.Fatal("reading a fresh window made it")
	}
	if win.Store(8, 5); win.mem == nil || win.Load(8) != 5 {
		t.Fatal("a store to a window word did not make it")
	}
}
