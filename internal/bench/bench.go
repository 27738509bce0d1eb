// Package bench is the microbenchmark harness behind the paper's
// bandwidth figures: sustained bandwidth as a function of message
// size and messages per synchronization for two-sided MPI, one-sided
// MPI, and GPU-initiated put-with-signal (Figs 1, 3, 4), atomic
// compare-and-swap latencies (§III-C), and the message-splitting
// experiment (Fig 10). Every point is measured by running the actual
// simulated stack, exactly as the paper measured its dots on real
// machines; the fitted LogGP parameters then draw the ceilings.
//
// The single driver is Sweep(cfg, Spec): it enumerates the (msg/sync,
// size) grid, runs every point as an isolated simulation on an
// internal/sched worker pool (Spec.Jobs wide), and collects points in
// grid order — so results are byte-identical at any job count. The
// callers name the protocol via Spec.Transport.
package bench

import (
	"fmt"
	"strings"

	"msgroofline/internal/comm"
	"msgroofline/internal/core"
	"msgroofline/internal/machine"
	"msgroofline/internal/mpi"
	"msgroofline/internal/plot"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sched"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
)

// Point is one measured sweep sample: a window of N messages of Bytes
// each completed in Elapsed, achieving GBs of sustained bandwidth.
type Point struct {
	N       int
	Bytes   int64
	Elapsed sim.Time
	GBs     float64
}

// Result is a sweep on one machine/transport.
type Result struct {
	Machine   string
	Transport string
	Points    []Point

	// Sched carries the worker-pool statistics of the sweep that
	// produced the result. It is wall-clock metadata, varies run to
	// run, and must never be mixed into simulated output.
	Sched *sched.Stats
}

// Transport selects which messaging protocol a Sweep measures. It is
// a superset of machine.Transport: the strict one-sided variant is a
// protocol discipline (remote flush per message), not a different
// software stack.
type Transport int

const (
	// TwoSided is the nonblocking Isend/Irecv/Waitall window.
	TwoSided Transport = iota
	// OneSided is the paper's 4-op windowed protocol (Put,
	// FlushLocal, Put(signal), FlushLocal; remote flushes close the
	// window).
	OneSided
	// OneSidedStrict is the per-message 4-op protocol with remote
	// flushes after every operation (Fig 6b's 5 us/message cost).
	OneSidedStrict
	// ShmemPutSignal is GPU-initiated put-with-signal (Fig 4).
	ShmemPutSignal
	// StreamTriggered is stream-triggered MPI: descriptors enqueued on
	// the device stream, fired by the GPU trigger engine.
	StreamTriggered
	// MemChannel is the RAMC-style ordered memory channel: FIFO byte
	// streams with open/credit semantics, one op per message.
	MemChannel
)

// Stack returns the calibrated software stack t runs on, whose
// parameter set a fit of its sweep uses: the strict one-sided protocol
// is a discipline of the one-sided stack, not a stack of its own. An
// unknown t maps to -1, which no machine has.
func (t Transport) Stack() machine.Transport {
	switch t {
	case TwoSided:
		return machine.TwoSided
	case OneSided, OneSidedStrict:
		return machine.OneSided
	case ShmemPutSignal:
		return machine.GPUShmem
	case StreamTriggered:
		return machine.StreamTriggered
	case MemChannel:
		return machine.MemChannel
	}
	return -1
}

// String names the transport exactly as Result.Transport labels it in
// the figures: its stack's name, except for the strict variant.
func (t Transport) String() string {
	if t == OneSidedStrict {
		return "one-sided-strict"
	}
	if s := t.Stack(); s >= 0 {
		return s.String()
	}
	return fmt.Sprintf("Transport(%d)", int(t))
}

// Transports enumerates every sweepable protocol in figure order — the
// single registry CLI parsing, usage text, and error messages derive
// their name lists from.
func Transports() []Transport {
	return []Transport{TwoSided, OneSided, OneSidedStrict, ShmemPutSignal, StreamTriggered, MemChannel}
}

// TransportList is the comma-separated name list of every sweepable
// protocol, for usage text and parse errors.
func TransportList() string {
	names := make([]string, 0, len(Transports()))
	for _, t := range Transports() {
		names = append(names, t.String())
	}
	return strings.Join(names, ", ")
}

// ParseTransport maps the figure/CLI names back to a Transport.
func ParseTransport(s string) (Transport, error) {
	for _, t := range Transports() {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("bench: unknown transport %q (want one of: %s)", s, TransportList())
}

// Spec describes one sweep: which protocol to measure, between how
// many ranks/PEs, over which msg/sync and message-size grids, and how
// many sweep points to simulate concurrently.
type Spec struct {
	// Transport is the protocol under test.
	Transport Transport
	// Ranks is the number of ranks (MPI) or PEs (SHMEM) in the job;
	// 0 defaults to 2 (the communicating far pair).
	Ranks int
	// Ns is the msg/sync grid; nil defaults to DefaultNs().
	Ns []int
	// Sizes is the message-size grid; nil defaults to DefaultSizes().
	Sizes []int64
	// Jobs is the number of sweep points simulated concurrently.
	// Every point is an independent, bit-reproducible simulation and
	// results are collected in grid order, so any Jobs value yields
	// byte-identical output. Jobs <= 0 runs sequentially (1); use
	// runtime.GOMAXPROCS(0) to saturate the host.
	Jobs int
	// Shards is the window worker parallelism of each point's
	// simulated world (0 means 1). The node-group decomposition and
	// event order are topology-determined, so points are
	// byte-identical at every value.
	Shards int
}

func (s Spec) withDefaults() Spec {
	if s.Ranks == 0 {
		s.Ranks = 2
	}
	if s.Ns == nil {
		s.Ns = DefaultNs()
	}
	if s.Sizes == nil {
		s.Sizes = DefaultSizes()
	}
	if s.Jobs <= 0 {
		s.Jobs = 1
	}
	return s
}

// Sweep measures every (n, size) point of the spec's grid on cfg and
// returns them in grid order (row-major: Ns outer, Sizes inner). The
// points run on up to Spec.Jobs goroutines via internal/sched; each is
// an isolated, deterministic simulation, so the result is
// byte-identical at any job count.
func Sweep(cfg *machine.Config, spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if spec.Ranks < 2 {
		return nil, fmt.Errorf("bench: sweep needs at least 2 ranks, got %d", spec.Ranks)
	}
	nsz := len(spec.Sizes)
	points, stats, err := sched.Map(spec.Jobs, len(spec.Ns)*nsz, func(i int) (Point, error) {
		return measure(cfg, spec.Transport, spec.Ranks, spec.Ns[i/nsz], spec.Sizes[i%nsz], spec.Shards)
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Machine:   cfg.Name,
		Transport: spec.Transport.String(),
		Points:    points,
		Sched:     stats,
	}, nil
}

// measure runs the single simulation behind one sweep point.
func measure(cfg *machine.Config, t Transport, ranks, n int, b int64, shards int) (Point, error) {
	p, _, err := measureWith(cfg, t, ranks, n, b, shards, runtime.Blank)
	return p, err
}

// measureWith runs one sweep kernel with payloads from payload and
// also returns the world's event digest. The sweeps pass
// runtime.Blank: a window is timed by its message lengths alone, so
// no bytes need to exist, be staged or land. The parity test passes
// real bytes and checks that the timing and digest do not change.
func measureWith(cfg *machine.Config, t Transport, ranks, n int, b int64, shards int, payload func(int) []byte) (Point, uint64, error) {
	switch t {
	case TwoSided:
		return measureTwoSided(cfg, ranks, n, b, shards, payload)
	case OneSided:
		return measureOneSided(cfg, ranks, n, b, shards, false, payload)
	case OneSidedStrict:
		return measureOneSided(cfg, ranks, n, b, shards, true, payload)
	case ShmemPutSignal:
		return measureCommStream(cfg, comm.Shmem, ranks, n, b, shards, payload)
	case StreamTriggered:
		return measureCommStream(cfg, comm.StreamTriggered, ranks, n, b, shards, payload)
	case MemChannel:
		return measureCommStream(cfg, comm.MemChannel, ranks, n, b, shards, payload)
	default:
		return Point{}, 0, fmt.Errorf("bench: unknown transport %v", t)
	}
}

// DefaultNs is the msg/sync sweep used by the figures.
func DefaultNs() []int { return []int{1, 4, 16, 64, 256, 1024} }

// DefaultSizes is the message-size sweep (8 B .. 1 MiB).
func DefaultSizes() []int64 {
	var out []int64
	for b := int64(8); b <= 1<<20; b *= 4 {
		out = append(out, b)
	}
	return out
}

func point(n int, b int64, elapsed sim.Time) Point {
	p := Point{N: n, Bytes: b, Elapsed: elapsed}
	if elapsed > 0 {
		p.GBs = float64(n) * float64(b) / elapsed.Seconds() / 1e9
	}
	return p
}

// farPair picks the representative communicating pair on a machine:
// the first rank and the last, which the catalog places on different
// sockets/islands whenever the machine has more than one.
func farPair(ranks int) (int, int) { return 0, ranks - 1 }

// measureTwoSided measures one two-sided MPI window: the receiver
// posts N nonblocking receives, the sender issues N nonblocking
// sends, and the window closes at the receiver's Waitall. Both ranks
// synchronize on a barrier before timing.
func measureTwoSided(cfg *machine.Config, ranks, n int, b int64, shards int, payload func(int) []byte) (Point, uint64, error) {
	src, dst := farPair(ranks)
	var elapsed sim.Time
	c, err := mpi.NewCommSharded(cfg, ranks, shards)
	if err != nil {
		return Point{}, 0, err
	}
	err = c.Launch(func(r *mpi.Rank) {
		switch r.Rank() {
		case src:
			r.Barrier()
			data := payload(int(b))
			for i := 0; i < n; i++ {
				r.Isend(dst, i, data)
			}
		case dst:
			reqs := make([]*mpi.Request, n)
			for i := 0; i < n; i++ {
				reqs[i] = r.Irecv(src, i)
			}
			r.Barrier()
			start := r.Now()
			r.Waitall(reqs)
			elapsed = r.Now() - start
		default:
			r.Barrier()
		}
	})
	if err != nil {
		return Point{}, 0, fmt.Errorf("bench: two-sided %s n=%d B=%d: %w", cfg.Name, n, b, err)
	}
	return point(n, b, elapsed), c.Digest(), nil
}

// measureOneSided measures one one-sided MPI window using the paper's
// operation budget of four one-sided calls per message: for each
// message a Put of the data, a flush, a Put of the signal word, and a
// flush. In the windowed protocol (strict=false) the per-message
// flushes are local and the window closes with remote flushes, as in
// the flood-style sweep; the receiver's Listing-1 acknowledgment loop
// is exercised by the SpTRSV workload. With strict=true every flush
// waits for remote completion — the per-message notification protocol
// SpTRSV must use, the 5 us/message cost of Fig 6b, and the reason
// one-sided SpTRSV loses (§III-B).
func measureOneSided(cfg *machine.Config, ranks, n int, b int64, shards int, strict bool, payload func(int) []byte) (Point, uint64, error) {
	src, dst := farPair(ranks)
	var elapsed sim.Time
	c, err := mpi.NewCommSharded(cfg, ranks, shards)
	if err != nil {
		return Point{}, 0, err
	}
	data, err := c.NewWin(int(b))
	if err != nil {
		return Point{}, 0, err
	}
	sig, err := c.NewWin(8 * n)
	if err != nil {
		return Point{}, 0, err
	}
	one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	err = c.Launch(func(r *mpi.Rank) {
		if r.Rank() != src {
			r.Barrier()
			return
		}
		r.Barrier()
		msg := payload(int(b))
		start := r.Now()
		if strict {
			for i := 0; i < n; i++ {
				r.Put(data, dst, 0, msg)
				r.Flush(data, dst)
				r.Put(sig, dst, 8*i, one)
				r.Flush(sig, dst)
			}
		} else {
			for i := 0; i < n; i++ {
				r.Put(data, dst, 0, msg)
				r.FlushLocal(data, dst)
				r.Put(sig, dst, 8*i, one)
				r.FlushLocal(sig, dst)
			}
			r.Flush(data, dst)
			r.Flush(sig, dst)
		}
		elapsed = r.Now() - start
	})
	if err != nil {
		label := "one-sided"
		if strict {
			label = "strict one-sided"
		}
		return Point{}, 0, fmt.Errorf("bench: %s %s n=%d B=%d: %w", label, cfg.Name, n, b, err)
	}
	return point(n, b, elapsed), c.Digest(), nil
}

// measureCommStream measures one streamed-delivery window on a PGAS
// transport (GPU shmem put-with-signal for Fig 4, stream-triggered or
// memory-channel): the sender issues N signaled deliveries and quiets,
// the receiver times from the pre-window barrier to its Nth consumed
// slot. The trace tap
// stays off — the point is a timing, not an op census.
func measureCommStream(cfg *machine.Config, kind comm.Kind, ranks, n int, b int64, shards int, payload func(int) []byte) (Point, uint64, error) {
	src, dst := farPair(ranks)
	slots := make([]int, ranks)
	slots[dst] = n
	tr, err := comm.New(comm.Spec{
		Machine: cfg, Kind: kind, Ranks: ranks,
		StreamSlots: slots, SlotBytes: int(b),
		Shards: shards, NoTrace: true,
	})
	if err != nil {
		return Point{}, 0, err
	}
	var elapsed sim.Time
	err = tr.Launch(func(ep comm.Endpoint) {
		switch ep.Rank() {
		case src:
			ep.Barrier()
			data := payload(int(b))
			for i := 0; i < n; i++ {
				ep.Deliver(dst, i, data)
			}
			ep.Quiet()
		case dst:
			ep.Barrier()
			start := ep.Now()
			for got := 0; got < n; got++ {
				ep.WaitAnySlot()
			}
			elapsed = ep.Now() - start
		default:
			ep.Barrier()
		}
	})
	if err != nil {
		return Point{}, 0, fmt.Errorf("bench: %s %s n=%d B=%d: %w", kind, cfg.Name, n, b, err)
	}
	return point(n, b, elapsed), tr.Digest(), nil
}

// CASLatency measures the round-trip time of a GPU atomic
// compare-and-swap from PE 0 to dst (Fig 4 / §III-C), averaged over
// reps back-to-back operations.
func CASLatency(cfg *machine.Config, npes, dst, reps int) (sim.Time, error) {
	return casLatency(cfg, comm.Shmem, npes, dst, reps)
}

// OneSidedCASLatency measures the CPU one-sided
// MPI_Compare_and_swap round trip (the 2 us / 500K GUPS figure of
// §III-C), averaged over reps back-to-back operations.
func OneSidedCASLatency(cfg *machine.Config, ranks, dst, reps int) (sim.Time, error) {
	return casLatency(cfg, comm.OneSided, ranks, dst, reps)
}

// casLatency times reps back-to-back compare-and-swaps from rank 0 to
// dst over the given stack's atomics heap and returns their mean.
func casLatency(cfg *machine.Config, kind comm.Kind, ranks, dst, reps int) (sim.Time, error) {
	t, err := comm.New(comm.Spec{Machine: cfg, Kind: kind, Ranks: ranks, SharedBytes: 64, NoTrace: true})
	if err != nil {
		return 0, err
	}
	var total sim.Time
	err = t.Launch(func(ep comm.Endpoint) {
		if ep.Rank() != 0 {
			return
		}
		start := ep.Now()
		for i := 0; i < reps; i++ {
			ep.CAS(dst, 0, uint64(i), uint64(i+1))
		}
		total = ep.Now() - start
	})
	if err != nil {
		return 0, err
	}
	return total / sim.Time(reps), nil
}

// TriggerDelay measures the stream-triggered per-message delivery
// latency: reps back-to-back 8-byte deliveries, receiver-timed and
// averaged. With the host overhead nearly off the critical path the
// number is dominated by L + TriggerLatency — the o/L inversion the
// offload roofline plots.
func TriggerDelay(cfg *machine.Config, ranks, reps int) (sim.Time, error) {
	p, _, err := measureCommStream(cfg, comm.StreamTriggered, ranks, reps, 8, 0, runtime.Blank)
	if err != nil {
		return 0, err
	}
	return p.Elapsed / sim.Time(reps), nil
}

// ChannelOpen measures the memory channel's one-time open handshake:
// the sender-timed cost of a single 8-byte send-and-drain on a cold
// (never-opened) channel minus the same on the now-warm channel — the
// difference is exactly the open cost, every per-message term cancels.
func ChannelOpen(cfg *machine.Config, ranks int) (sim.Time, error) {
	tp, ok := cfg.Params(machine.MemChannel)
	if !ok {
		return 0, fmt.Errorf("bench: machine %s has no memory-channel transport", cfg.Name)
	}
	w, err := runtime.NewWorld(cfg, ranks)
	if err != nil {
		return 0, err
	}
	src, dst := farPair(ranks)
	ep := w.Endpoint(src)
	ch := runtime.NewChannel(ep, dst, tp)
	mem := runtime.NewMem(8, 8)
	put := runtime.Put{Dst: dst, Mem: &mem}
	var cold, warm sim.Time
	w.Spawn(src, "opener", func(p *sim.Proc) {
		start := p.Now()
		ch.Put(p, put, runtime.Blank(8), ep.AutoChannel())
		ch.Drain(p)
		cold = p.Now() - start
		start = p.Now()
		ch.Put(p, put, runtime.Blank(8), ep.AutoChannel())
		ch.Drain(p)
		warm = p.Now() - start
	})
	if err := w.Run(); err != nil {
		return 0, err
	}
	return cold - warm, nil
}

// SplitPoint is one Fig-10 measurement: a message volume sent whole
// vs split into `Parts` channel-pinned sub-messages.
type SplitPoint struct {
	Volume  int64
	Whole   sim.Time
	Split   sim.Time
	Speedup float64
}

// SweepSplit measures the Fig-10 experiment on a GPU machine: for
// each volume, send it as one put-with-signal versus `parts` puts on
// distinct injection channels, receiver waiting for all signals.
func SweepSplit(cfg *machine.Config, parts int, volumes []int64) ([]SplitPoint, error) {
	var out []SplitPoint
	for _, v := range volumes {
		whole, err := splitRun(cfg, v, 1)
		if err != nil {
			return nil, err
		}
		split, err := splitRun(cfg, v, parts)
		if err != nil {
			return nil, err
		}
		sp := SplitPoint{Volume: v, Whole: whole, Split: split}
		if split > 0 {
			sp.Speedup = float64(whole) / float64(split)
		}
		out = append(out, sp)
	}
	return out, nil
}

func splitRun(cfg *machine.Config, volume int64, parts int) (sim.Time, error) {
	var elapsed sim.Time
	heap := int(volume) + 8*parts + 64
	j, err := shmem.NewJob(cfg, 2, heap)
	if err != nil {
		return 0, err
	}
	err = j.Launch(func(c *shmem.Ctx) {
		switch c.MyPE() {
		case 0:
			c.Barrier()
			per := volume / int64(parts)
			for i := 0; i < parts; i++ {
				sz := per
				if i == parts-1 {
					sz = volume - per*int64(parts-1)
				}
				c.PutSignalNBICh(1, int(per)*i, runtime.Blank(int(sz)), int(volume)+8*i, 1, i)
			}
			c.Quiet()
		case 1:
			sigs := make([]int, parts)
			for i := range sigs {
				sigs[i] = int(volume) + 8*i
			}
			c.Barrier()
			start := c.Now()
			c.WaitUntilAll(sigs, 1)
			elapsed = c.Now() - start
		}
	})
	if err != nil {
		return 0, err
	}
	return elapsed, nil
}

// Samples converts measured points into fitter input.
func (r *Result) Samples() []core.Sample {
	out := make([]core.Sample, len(r.Points))
	for i, p := range r.Points {
		out[i] = core.Sample{N: p.N, Bytes: p.Bytes, Elapsed: p.Elapsed}
	}
	return out
}

// Series groups the points into one plot series per msg/sync value
// (x = message size, y = GB/s), the layout of Figs 1, 3 and 4.
func (r *Result) Series() []plot.Series {
	byN := map[int]*plot.Series{}
	var order []int
	for _, p := range r.Points {
		s, ok := byN[p.N]
		if !ok {
			s = &plot.Series{Name: fmt.Sprintf("%s %d msg/sync", r.Transport, p.N)}
			byN[p.N] = s
			order = append(order, p.N)
		}
		s.X = append(s.X, float64(p.Bytes))
		s.Y = append(s.Y, p.GBs)
	}
	out := make([]plot.Series, 0, len(order))
	for _, n := range order {
		out = append(out, plot.SortedByX(*byN[n]))
	}
	return out
}

// MaxGBs returns the best bandwidth in the sweep.
func (r *Result) MaxGBs() float64 {
	best := 0.0
	for _, p := range r.Points {
		if p.GBs > best {
			best = p.GBs
		}
	}
	return best
}

// At returns the measured point for (n, bytes), ok=false if absent.
// When the same (n, bytes) pair appears more than once the first point
// wins. A sweep holds at most a few dozen points, so a scan is enough.
func (r *Result) At(n int, bytes int64) (Point, bool) {
	for _, p := range r.Points {
		if p.N == n && p.Bytes == bytes {
			return p, true
		}
	}
	return Point{}, false
}
