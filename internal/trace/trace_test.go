package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"msgroofline/internal/sim"
)

func TestEmptySummary(t *testing.T) {
	r := New()
	s := r.Summarize(sim.Second)
	if s.Messages != 0 || s.TotalBytes != 0 || s.SustainedGBs != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummaryBasics(t *testing.T) {
	r := New()
	r.Record(0, 1, 100, 0, sim.Microsecond)
	r.Record(1, 0, 300, 0, 3*sim.Microsecond)
	r.Sync()
	r.Sync()
	s := r.Summarize(sim.Microsecond) // 400 B in 1 us = 0.4 GB/s
	if s.Messages != 2 || s.Syncs != 2 {
		t.Fatalf("counts = %d/%d", s.Messages, s.Syncs)
	}
	if s.MsgsPerSync != 1 {
		t.Fatalf("msg/sync = %v", s.MsgsPerSync)
	}
	if s.TotalBytes != 400 || s.MinBytes != 100 || s.MaxBytes != 300 {
		t.Fatalf("bytes = %d/%d/%d", s.TotalBytes, s.MinBytes, s.MaxBytes)
	}
	if s.MeanBytes != 200 || s.MedianBytes != 200 {
		t.Fatalf("mean/median = %v/%v", s.MeanBytes, s.MedianBytes)
	}
	if s.MeanLatency != 2*sim.Microsecond {
		t.Fatalf("mean latency = %v", s.MeanLatency)
	}
	if s.SustainedGBs < 0.39 || s.SustainedGBs > 0.41 {
		t.Fatalf("bw = %v", s.SustainedGBs)
	}
	if s.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestMedianOdd(t *testing.T) {
	r := New()
	for _, b := range []int64{10, 1000, 50} {
		r.Record(0, 0, b, 0, sim.Microsecond)
	}
	if s := r.Summarize(sim.Second); s.MedianBytes != 50 {
		t.Fatalf("median = %v, want 50", s.MedianBytes)
	}
}

func TestNoSyncsMeansZeroMsgsPerSync(t *testing.T) {
	r := New()
	r.Record(0, 0, 8, 0, 1)
	if s := r.Summarize(sim.Second); s.MsgsPerSync != 0 {
		t.Fatalf("msg/sync = %v, want 0 without syncs", s.MsgsPerSync)
	}
}

// message is one recorded message of the reference event log.
type message struct {
	src, dst       int
	bytes          int64
	issue, deliver sim.Time
}

// randomStream draws n messages among 66 endpoints (two of them out of
// range for a 64-rank matrix) with sizes from a small set, so medians
// fall on ties, and arbitrary issue/deliver times.
func randomStream(rng *rand.Rand, n int) []message {
	sizes := []int64{0, 8, 8, 64, 1024, 4096}
	out := make([]message, n)
	for i := range out {
		issue := sim.Time(rng.Int63n(1e9))
		out[i] = message{
			src: rng.Intn(66), dst: rng.Intn(66),
			bytes: sizes[rng.Intn(len(sizes))],
			issue: issue, deliver: issue + sim.Time(rng.Int63n(1e6)),
		}
	}
	return out
}

func record(msgs []message, syncs int) *Recorder {
	r := New()
	for _, m := range msgs {
		r.Record(m.src, m.dst, m.bytes, m.issue, m.deliver)
	}
	for i := 0; i < syncs; i++ {
		r.Sync()
	}
	return r
}

// refSummary is the slice-and-sort reference: it keeps every message
// and sorts the sizes for the median.
func refSummary(msgs []message, syncs int, elapsed sim.Time) Summary {
	s := Summary{Messages: len(msgs), Syncs: syncs}
	if len(msgs) == 0 {
		return s
	}
	sizes := make([]int64, 0, len(msgs))
	var lat sim.Time
	s.MinBytes = msgs[0].bytes
	for _, m := range msgs {
		s.TotalBytes += m.bytes
		s.MinBytes = min(s.MinBytes, m.bytes)
		s.MaxBytes = max(s.MaxBytes, m.bytes)
		sizes = append(sizes, m.bytes)
		lat += m.deliver - m.issue
	}
	s.MeanBytes = float64(s.TotalBytes) / float64(len(msgs))
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	mid := len(sizes) / 2
	if len(sizes)%2 == 1 {
		s.MedianBytes = float64(sizes[mid])
	} else {
		s.MedianBytes = float64(sizes[mid-1]+sizes[mid]) / 2
	}
	if syncs > 0 {
		s.MsgsPerSync = float64(len(msgs)) / float64(syncs)
	}
	s.MeanLatency = lat / sim.Time(len(msgs))
	if elapsed > 0 {
		s.SustainedGBs = float64(s.TotalBytes) / elapsed.Seconds() / 1e9
	}
	return s
}

// refPairs is the reference traffic matrix content: per-pair sums over
// the in-range messages, sorted by (src, dst).
func refPairs(msgs []message, ranks int) []Pair {
	sums := map[[2]int]*Pair{}
	for _, m := range msgs {
		if m.src >= ranks || m.dst >= ranks {
			continue
		}
		k := [2]int{m.src, m.dst}
		if sums[k] == nil {
			sums[k] = &Pair{Src: m.src, Dst: m.dst}
		}
		sums[k].Bytes += m.bytes
		sums[k].Messages++
	}
	out := make([]Pair, 0, len(sums))
	for _, p := range sums {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// TestFoldMatchesEventLog checks the folded Summary and Matrix against
// the slice-and-sort reference over seeded random streams of odd and
// even lengths.
func TestFoldMatchesEventLog(t *testing.T) {
	const ranks = 64
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 64, 999, 1000, 5001, 5002} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			msgs := randomStream(rng, n)
			syncs := rng.Intn(50)
			elapsed := sim.Time(rng.Int63n(1e10))
			r := record(msgs, syncs)
			if got, want := r.Summarize(elapsed), refSummary(msgs, syncs, elapsed); got != want {
				t.Fatalf("summary\n got %+v\nwant %+v", got, want)
			}
			m := r.Matrix(ranks)
			want := refPairs(msgs, ranks)
			if !reflect.DeepEqual(m.pairs, want) {
				t.Fatalf("matrix pairs\n got %v\nwant %v", m.pairs, want)
			}
			for _, p := range want {
				if got := m.At(p.Src, p.Dst); got != p {
					t.Fatalf("At(%d, %d) = %+v, want %+v", p.Src, p.Dst, got, p)
				}
			}
		})
	}
}

// TestFoldOrderInvariant records one stream in order, shuffled, and
// shuffled across concurrent goroutines (as parallel window workers
// call Record), and requires an identical Summary and Matrix.
func TestFoldOrderInvariant(t *testing.T) {
	const ranks, n, syncs, workers = 64, 4001, 40, 4
	rng := rand.New(rand.NewSource(2))
	msgs := randomStream(rng, n)
	in := record(msgs, syncs)
	shuffled := append([]message(nil), msgs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	concurrent := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(part []message) {
			defer wg.Done()
			for _, m := range part {
				concurrent.Record(m.src, m.dst, m.bytes, m.issue, m.deliver)
			}
			for i := 0; i < syncs/workers; i++ {
				concurrent.Sync()
			}
		}(shuffled[w*n/workers : (w+1)*n/workers])
	}
	wg.Wait()

	want, wantM := in.Summarize(sim.Second), in.Matrix(ranks)
	for name, r := range map[string]*Recorder{"shuffled": record(shuffled, syncs), "concurrent": concurrent} {
		if got := r.Summarize(sim.Second); got != want {
			t.Errorf("%s: summary %+v, want %+v", name, got, want)
		}
		if got := r.Matrix(ranks); !reflect.DeepEqual(got, wantM) {
			t.Errorf("%s: matrix differs", name)
		}
	}
}

// TestRecorderAllocsBoundedByPairsAndSizes pins the recorder's memory
// to its distinct pairs and sizes: a fresh recorder folding 10000
// messages over 4 pairs and 3 sizes allocates a small constant number
// of times, not once per message.
func TestRecorderAllocsBoundedByPairsAndSizes(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		r := New()
		for i := 0; i < 10000; i++ {
			r.Record(i%2, i%4/2, int64(8<<(i%3)), sim.Time(i), sim.Time(i+5))
		}
	})
	if allocs > 8 {
		t.Fatalf("fresh recorder allocated %v times for 10000 messages, want <= 8", allocs)
	}
}

// BenchmarkTraceRecord is the CI-gated allocation budget of the tracing
// tap: folding a message of a pair and size the recorder has already
// seen must allocate nothing.
func BenchmarkTraceRecord(b *testing.B) {
	r := New()
	r.Record(0, 1, 64, 0, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(0, 1, 64, sim.Time(i), sim.Time(i+5))
	}
}
