package trace

import (
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
	r.Record(Event{Src: 0, Dst: 1, Bytes: 100, Issue: 0, Deliver: sim.Microsecond})
	r.Record(Event{Src: 1, Dst: 0, Bytes: 300, Issue: 0, Deliver: 3 * sim.Microsecond})
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
		r.Record(Event{Bytes: b, Deliver: sim.Microsecond})
	}
	if s := r.Summarize(sim.Second); s.MedianBytes != 50 {
		t.Fatalf("median = %v, want 50", s.MedianBytes)
	}
}

func TestP99Latency(t *testing.T) {
	r := New()
	for i := 1; i <= 100; i++ {
		r.Record(Event{Bytes: 8, Issue: 0, Deliver: sim.Time(i) * sim.Microsecond})
	}
	s := r.Summarize(sim.Second)
	if s.P99Latency < 99*sim.Microsecond {
		t.Fatalf("p99 = %v", s.P99Latency)
	}
}

func TestNoSyncsMeansZeroMsgsPerSync(t *testing.T) {
	r := New()
	r.Record(Event{Bytes: 8, Deliver: 1})
	if s := r.Summarize(sim.Second); s.MsgsPerSync != 0 {
		t.Fatalf("msg/sync = %v, want 0 without syncs", s.MsgsPerSync)
	}
}

func TestPoolReuseAndReset(t *testing.T) {
	r := Get()
	r.Record(Event{Src: 0, Dst: 1, Bytes: 64, Issue: 0, Deliver: 10})
	r.Sync()
	if len(r.Events()) != 1 || r.Syncs() != 1 {
		t.Fatalf("recorder state: %d events, %d syncs", len(r.Events()), r.Syncs())
	}
	r.Reset()
	if len(r.Events()) != 0 || r.Syncs() != 0 {
		t.Fatal("Reset left state behind")
	}
	Release(r)
	// A recorder from the pool must always come back empty.
	r2 := Get()
	if len(r2.Events()) != 0 || r2.Syncs() != 0 {
		t.Fatalf("pooled recorder not empty: %d events, %d syncs", len(r2.Events()), r2.Syncs())
	}
	Release(r2)
	// Releasing nil is a safe no-op (transports without a tap).
	Release(nil)
}

// BenchmarkTraceSteadyStateRecord is the CI-gated allocation budget of
// the tracing tap: once the pooled event buffer has grown to the run's
// message count, a full acquire/record/sync/release cycle — what every
// traced simulation adds over an untraced one — must allocate nothing.
func BenchmarkTraceSteadyStateRecord(b *testing.B) {
	const msgs = 1024
	warm := Get()
	for i := 0; i < msgs; i++ {
		warm.Record(Event{Src: 0, Dst: 1, Bytes: 64, Issue: sim.Time(i), Deliver: sim.Time(i + 5)})
	}
	Release(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Get()
		for j := 0; j < msgs; j++ {
			r.Record(Event{Src: 0, Dst: 1, Bytes: 64, Issue: sim.Time(j), Deliver: sim.Time(j + 5)})
		}
		r.Sync()
		Release(r)
	}
}
