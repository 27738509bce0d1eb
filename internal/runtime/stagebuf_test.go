package runtime

import (
	"bytes"
	"testing"
)

// TestBlankStaging pins the payload-staging contract: blank payloads
// (and sub-slices of them) stage to nil and land nothing, so the
// target keeps its old bytes; payloads above the zero array fall back
// to ordinary bytes; real bytes are copied at Stage and written at
// Land.
func TestBlankStaging(t *testing.T) {
	b := Blank(1 << 20)
	if len(b) != 1<<20 || cap(b) != 1<<20 || !IsBlank(b) || !IsBlank(b[100:200]) {
		t.Fatalf("Blank(1 MiB): len %d cap %d, blank %v", len(b), cap(b), IsBlank(b))
	}
	if IsBlank(nil) || IsBlank(b[:0]) {
		t.Fatal("an empty slice is not a blank payload")
	}
	if Stage(b) != nil || Stage(nil) != nil {
		t.Fatal("blank and empty payloads must stage to nil")
	}
	if big := Blank(len(blankBytes) + 1); IsBlank(big) || len(big) != len(blankBytes)+1 {
		t.Fatal("a payload above the zero array must fall back to ordinary bytes")
	}

	dst := []byte{7, 7, 7, 7}
	Land(dst, Stage(Blank(4)))
	if !bytes.Equal(dst, []byte{7, 7, 7, 7}) {
		t.Fatalf("blank landing changed the target to %v", dst)
	}
	src := []byte{1, 2, 3}
	staged := Stage(src)
	src[0] = 9 // the origin may reuse its buffer after Stage
	Land(dst, staged)
	if !bytes.Equal(dst, []byte{1, 2, 3, 7}) {
		t.Fatalf("real landing wrote %v, want [1 2 3 7]", dst)
	}
}
