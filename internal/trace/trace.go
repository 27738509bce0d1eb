// Package trace folds the messages of workload runs into the
// quantities the Message Roofline model plots: message sizes, messages
// per synchronization, sustained bandwidth, and per-message latency,
// plus the per-pair traffic matrix. Workloads call Record once per
// application message and Sync once per synchronization point; the
// summary then places the workload as a dot on the roofline.
package trace

import (
	"fmt"
	"slices"
	"sync"

	"msgroofline/internal/sim"
)

// Recorder folds a run's messages and synchronization points into the
// aggregates the roofline reads: counts, byte totals and extremes, a
// size histogram (for an exact median), the latency sum, and per-pair
// traffic. Its memory grows with the distinct sizes and communicating
// pairs of a run, not with its message count. Record and Sync are
// called from delivery hooks, which under the coupled engine's
// parallel windows may run on concurrent node-group goroutines, so
// both take a mutex; every folded quantity is a commutative sum, min,
// max or count, so the nondeterministic call order never reaches an
// output. Readers (Summarize, Matrix) run after the simulation joins
// its workers and need no locking.
type Recorder struct {
	mu       sync.Mutex
	messages int
	syncs    int
	total    int64
	min, max int64
	latency  sim.Time
	// sizes counts messages per payload size.
	sizes map[int64]int64
	// pairs holds the traffic of every communicating (src, dst),
	// keyed by pairKey.
	pairs map[uint64]Pair
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{sizes: make(map[int64]int64), pairs: make(map[uint64]Pair)}
}

// pairKey packs a (src, dst) rank pair into one map key.
func pairKey(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// Record folds in one message: src sent bytes to dst, issued at issue
// and delivered (last byte or signal landed) at deliver. Its signature
// is the stacks' message-hook signature, so a transport installs
// r.Record directly.
func (r *Recorder) Record(src, dst int, bytes int64, issue, deliver sim.Time) {
	r.mu.Lock()
	if r.messages == 0 || bytes < r.min {
		r.min = bytes
	}
	if bytes > r.max {
		r.max = bytes
	}
	r.messages++
	r.total += bytes
	r.latency += deliver - issue
	r.sizes[bytes]++
	k := pairKey(src, dst)
	p := r.pairs[k]
	p.Src, p.Dst = src, dst
	p.Bytes += bytes
	p.Messages++
	r.pairs[k] = p
	r.mu.Unlock()
}

// Sync notes one synchronization point (a Waitall, fence, or signal
// wait completing).
func (r *Recorder) Sync() {
	r.mu.Lock()
	r.syncs++
	r.mu.Unlock()
}

// Summary is the roofline-relevant digest of a run.
type Summary struct {
	Messages    int
	Syncs       int
	TotalBytes  int64
	MinBytes    int64
	MaxBytes    int64
	MeanBytes   float64
	MedianBytes float64
	// MsgsPerSync is Messages / Syncs — the roofline's concurrency
	// coordinate (0 when no syncs were recorded).
	MsgsPerSync float64
	// MeanLatency is the mean end-to-end per-message latency.
	MeanLatency sim.Time
	// SustainedGBs is TotalBytes over the supplied elapsed time.
	SustainedGBs float64
}

// Summarize computes a Summary given the run's elapsed simulated time.
func (r *Recorder) Summarize(elapsed sim.Time) Summary {
	s := Summary{Messages: r.messages, Syncs: r.syncs}
	if r.messages == 0 {
		return s
	}
	s.TotalBytes, s.MinBytes, s.MaxBytes = r.total, r.min, r.max
	s.MeanBytes = float64(s.TotalBytes) / float64(r.messages)
	s.MedianBytes = r.medianBytes()
	if r.syncs > 0 {
		s.MsgsPerSync = float64(r.messages) / float64(r.syncs)
	}
	s.MeanLatency = r.latency / sim.Time(r.messages)
	if elapsed > 0 {
		s.SustainedGBs = float64(s.TotalBytes) / elapsed.Seconds() / 1e9
	}
	return s
}

// medianBytes returns the exact median message size: the middle
// message (or the mean of the two middle messages of an even count) in
// ascending size order, read off the size histogram.
func (r *Recorder) medianBytes() float64 {
	sizes := make([]int64, 0, len(r.sizes))
	for b := range r.sizes {
		sizes = append(sizes, b)
	}
	slices.Sort(sizes)
	// at returns the i-th smallest message size (0-based).
	at := func(i int64) int64 {
		var seen int64
		for _, b := range sizes {
			if seen += r.sizes[b]; i < seen {
				return b
			}
		}
		panic("trace: size histogram does not cover the message count")
	}
	n := int64(r.messages)
	if n%2 == 1 {
		return float64(at(n / 2))
	}
	return float64(at(n/2-1)+at(n/2)) / 2
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("msgs=%d syncs=%d msg/sync=%.1f bytes[min/med/max]=%d/%.0f/%d lat[mean]=%v bw=%.2fGB/s",
		s.Messages, s.Syncs, s.MsgsPerSync, s.MinBytes, s.MedianBytes, s.MaxBytes, s.MeanLatency, s.SustainedGBs)
}
