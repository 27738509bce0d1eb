package bench

import (
	goruntime "runtime"
	"testing"

	"msgroofline/internal/runtime"
)

// sweepMachines pairs every sweep transport with a machine that
// calibrates it.
var sweepMachines = []struct {
	tr      Transport
	machine string
}{
	{TwoSided, "perlmutter-cpu"},
	{OneSided, "perlmutter-cpu"},
	{OneSidedStrict, "perlmutter-cpu"},
	{ShmemPutSignal, "perlmutter-gpu"},
	{StreamTriggered, "perlmutter-gpu"},
	{MemChannel, "perlmutter-cpu"},
}

// realBytes is a payload of non-zero bytes: if a transport ever staged
// into or landed on the shared zero array, these bytes would show there.
func realBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// TestBlankPayloadParity checks that every sweep kernel times a blank
// payload exactly like real bytes of the same length: same elapsed
// time and same event digest. The points cover a tiny message, the
// 1 MiB top of the sweep, and one size above the shared zero array,
// where runtime.Blank falls back to ordinary bytes. Afterwards the
// zero array must still be all zero.
func TestBlankPayloadParity(t *testing.T) {
	points := []struct {
		n int
		b int64
	}{{16, 8}, {4, 1 << 20}, {2, 4<<20 + 64}}
	for _, sm := range sweepMachines {
		m := cfg(t, sm.machine)
		for _, p := range points {
			blank, blankDigest, err := measureWith(m, sm.tr, 2, p.n, p.b, 1, runtime.Blank)
			if err != nil {
				t.Fatal(err)
			}
			full, fullDigest, err := measureWith(m, sm.tr, 2, p.n, p.b, 1, realBytes)
			if err != nil {
				t.Fatal(err)
			}
			if blank.Elapsed != full.Elapsed || blankDigest != fullDigest {
				t.Errorf("%s n=%d B=%d: blank payload took %v (digest %#x), real bytes %v (digest %#x)",
					sm.tr, p.n, p.b, blank.Elapsed, blankDigest, full.Elapsed, fullDigest)
			}
		}
	}
	zero := runtime.Blank(4 << 20)
	if !runtime.IsBlank(zero) {
		t.Fatal("runtime.Blank(4 MiB) is not a view of the shared zero array")
	}
	for i, v := range zero {
		if v != 0 {
			t.Fatalf("shared zero array byte %d = %#x after the sweeps", i, v)
		}
	}
}

// TestStreamSweepPointAllocation pins the memory cost of the largest
// streamed-delivery sweep point (n=256, B=1 MiB). An eagerly allocated
// slot heap costs n×B = 256 MiB per rank; with blank payloads and
// lazily allocated heaps the point allocates a few megabytes.
func TestStreamSweepPointAllocation(t *testing.T) {
	const limit = 16 << 20
	for _, sm := range sweepMachines {
		if sm.tr != StreamTriggered && sm.tr != MemChannel {
			continue
		}
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		_, err := measure(cfg(t, sm.machine), sm.tr, 2, 256, 1<<20, 0)
		goruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s n=256 B=1MiB point allocated %d MB, want under %d MB",
				sm.tr, got>>20, limit>>20)
		}
	}
}
