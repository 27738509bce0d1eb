package trace

import (
	"fmt"
	"strings"
	"testing"
)

func sampleRecorder() *Recorder {
	r := New()
	r.Record(Event{Src: 2, Dst: 3, Bytes: 4000})
	r.Record(Event{Src: 0, Dst: 1, Bytes: 1000})
	r.Record(Event{Src: 1, Dst: 0, Bytes: 200})
	r.Record(Event{Src: 0, Dst: 1, Bytes: 500})
	r.Record(Event{Src: 9, Dst: 0, Bytes: 99999}) // out of range for ranks=4
	return r
}

func TestMatrixAggregation(t *testing.T) {
	m := sampleRecorder().Matrix(4)
	if p := m.At(0, 1); p.Bytes != 1500 || p.Messages != 2 {
		t.Fatalf("0->1: %d bytes, %d msgs", p.Bytes, p.Messages)
	}
	if got := m.At(1, 0).Bytes; got != 200 {
		t.Fatalf("1->0 = %d", got)
	}
	if got := m.At(2, 3).Bytes; got != 4000 {
		t.Fatalf("2->3 = %d", got)
	}
	if p := m.At(3, 2); p.Src != 3 || p.Dst != 2 || p.Bytes != 0 || p.Messages != 0 {
		t.Fatalf("silent pair 3->2 = %+v", p)
	}
	// Only communicating pairs are stored, in (src, dst) order, and
	// out-of-range events are ignored.
	var total int64
	var got [][2]int
	for _, p := range m.pairs {
		total += p.Bytes
		got = append(got, [2]int{p.Src, p.Dst})
	}
	if total != 5700 {
		t.Fatalf("total = %d", total)
	}
	if want := [][2]int{{0, 1}, {1, 0}, {2, 3}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
}

func TestHottestOrdering(t *testing.T) {
	m := sampleRecorder().Matrix(4)
	hot := m.Hottest(2)
	if len(hot) != 2 {
		t.Fatalf("hottest = %d entries", len(hot))
	}
	if hot[0].Src != 2 || hot[0].Dst != 3 || hot[0].Bytes != 4000 {
		t.Fatalf("hottest[0] = %+v", hot[0])
	}
	if hot[1].Bytes != 1500 {
		t.Fatalf("hottest[1] = %+v", hot[1])
	}
	// k larger than entries: all returned.
	if got := len(m.Hottest(100)); got != 3 {
		t.Fatalf("hottest(100) = %d", got)
	}
}

func TestImbalance(t *testing.T) {
	m := sampleRecorder().Matrix(4)
	// Pairs: 1500, 200, 4000 -> mean 1900, max 4000.
	want := 4000.0 / 1900.0
	if got := m.Imbalance(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
	if (New()).Matrix(4).Imbalance() != 0 {
		t.Fatal("empty matrix imbalance should be 0")
	}
}

func TestMatrixString(t *testing.T) {
	s := sampleRecorder().Matrix(4).String()
	if !strings.Contains(s, "traffic matrix") {
		t.Fatalf("string = %q", s)
	}
	// Row 2 shows 4000 B (3.9 KiB) sent to rank 3 and nothing else.
	if !strings.Contains(s, "   2:    0.0    0.0    0.0    3.9\n") {
		t.Fatalf("row 2 missing from %q", s)
	}
}
