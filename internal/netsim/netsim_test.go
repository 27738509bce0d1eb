package netsim

import (
	"testing"
	"testing/quick"

	"msgroofline/internal/sim"
)

func TestLinkReserveFIFO(t *testing.T) {
	l := NewLink("l", 1e9, 100*sim.Nanosecond) // 1 GB/s, 100 ns
	// 1000 bytes at 1 GB/s = 1 us serialization.
	start, arrive := l.Reserve(0, 1000)
	if start != 0 {
		t.Fatalf("first message start = %v, want 0", start)
	}
	if arrive != sim.Microsecond+100*sim.Nanosecond {
		t.Fatalf("arrive = %v, want 1.1us", arrive)
	}
	// Second message injected at t=0 must queue behind the first.
	start2, arrive2 := l.Reserve(0, 1000)
	if start2 != sim.Microsecond {
		t.Fatalf("second start = %v, want 1us", start2)
	}
	if arrive2 != 2*sim.Microsecond+100*sim.Nanosecond {
		t.Fatalf("second arrive = %v, want 2.1us", arrive2)
	}
	s := l.Stats()
	if s.Messages != 2 || s.Bytes != 2000 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyTime != 2*sim.Microsecond {
		t.Fatalf("busy = %v, want 2us", s.BusyTime)
	}
}

func TestLinkIdleGap(t *testing.T) {
	l := NewLink("l", 1e9, 0)
	l.Reserve(0, 1000)
	// Arriving long after the link is free: no queueing.
	start, _ := l.Reserve(10*sim.Microsecond, 1000)
	if start != 10*sim.Microsecond {
		t.Fatalf("start = %v, want 10us", start)
	}
}

// mustRoute resolves the route from src to dst, failing the test when
// there is none.
func mustRoute(t testing.TB, n *Network, src, dst string) Route {
	t.Helper()
	r, err := n.RouteTo(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNetworkRouting(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 10, 1)
	n.AddLink("b", "c", 1e9, 10, 1)
	n.AddLink("a", "c", 1e9, 50, 1) // direct but same hops? no: 1 hop, preferred
	if h := mustRoute(t, n, "a", "c").Hops(); h != 1 {
		t.Fatalf("hops a-c = %d, want 1 (direct)", h)
	}
	if h := mustRoute(t, n, "a", "b").Hops(); h != 1 {
		t.Fatalf("hops a-b = %d, want 1", h)
	}
	if h := mustRoute(t, n, "a", "a").Hops(); h != 0 {
		t.Fatalf("hops a-a = %d, want 0", h)
	}
	n2 := New()
	n2.AddLink("a", "b", 1e9, 10, 1)
	n2.AddLink("b", "c", 2e9, 10, 1)
	r := mustRoute(t, n2, "a", "c")
	if h := r.Hops(); h != 2 {
		t.Fatalf("hops = %d, want 2", h)
	}
	if bw := r.PeakBandwidth(); bw != 1e9 {
		t.Fatalf("bottleneck = %v, want 1e9", bw)
	}
	if lat := r.BaseLatency(); lat != 20 {
		t.Fatalf("latency = %v, want 20ps", lat)
	}
}

func TestNetworkDisconnected(t *testing.T) {
	n := New()
	n.AddNode("x")
	n.AddNode("y")
	if _, err := n.RouteTo("x", "y"); err == nil {
		t.Fatal("expected no-route error")
	}
}

func TestTransferMultiHopStoreAndForward(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("b", "c", 1e9, 100*sim.Nanosecond, 1)
	// 1000 B: 1 us per hop serialization + 100 ns per hop latency.
	got := mustRoute(t, n, "a", "c").Transfer(0, 1000, 0)
	want := 2*(sim.Microsecond+100*sim.Nanosecond) + 0*sim.Nanosecond
	if got != want {
		t.Fatalf("delivery = %v, want %v", got, want)
	}
}

func TestParallelChannelsAvoidContention(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 4)
	r := mustRoute(t, n, "a", "b")
	// Four messages on distinct channels all start at t=0.
	for ch := 0; ch < 4; ch++ {
		if got := r.Transfer(0, 1000, ch); got != sim.Microsecond {
			t.Fatalf("channel %d delivery = %v, want 1us", ch, got)
		}
	}
	// A fifth message reuses channel 0 and queues.
	if got := r.Transfer(0, 1000, 4); got != 2*sim.Microsecond {
		t.Fatalf("queued delivery = %v, want 2us", got)
	}
	if c := r.Channels(); c != 4 {
		t.Fatalf("Channels = %d, want 4", c)
	}
	if bw := r.AggregateBandwidth(); bw != 4e9 {
		t.Fatalf("aggregate = %v, want 4e9", bw)
	}
}

func TestSameChannelContention(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 2)
	ab, ba := mustRoute(t, n, "a", "b"), mustRoute(t, n, "b", "a")
	// Two messages on the same channel index serialize.
	first := ab.Transfer(0, 1000, 1)
	second := ab.Transfer(0, 1000, 1)
	if first != sim.Microsecond || second != 2*sim.Microsecond {
		t.Fatalf("got %v, %v; want 1us, 2us", first, second)
	}
	// Opposite directions never contend (full duplex).
	fwd := ab.Transfer(0, 1000, 0)
	rev := ba.Transfer(0, 1000, 0)
	if fwd != sim.Microsecond || rev != sim.Microsecond {
		t.Fatalf("duplex broken: fwd=%v rev=%v", fwd, rev)
	}
}

func TestNegativeChannelIndex(t *testing.T) {
	n := New()
	n.AddLink("a", "b", 1e9, 0, 3)
	// A negative channel index is tolerated: it wraps onto a member
	// link instead of panicking.
	if got := mustRoute(t, n, "a", "b").Transfer(0, 8, -2); got <= 0 {
		t.Fatalf("negative channel index delivery = %v", got)
	}
}

// Property: delivery time is nondecreasing in message size and never
// earlier than injection + base latency + serialization at bottleneck.
func TestTransferLowerBoundProperty(t *testing.T) {
	f := func(sz uint16, at uint16) bool {
		n := New()
		n.AddLink("a", "b", 25e9, 500*sim.Nanosecond, 1)
		n.AddLink("b", "c", 32e9, 200*sim.Nanosecond, 1)
		r := mustRoute(t, n, "a", "c")
		bytes := int64(sz) + 1
		t0 := sim.Time(at) * sim.Nanosecond
		got := r.Transfer(t0, bytes, 0)
		lb := t0 + r.BaseLatency() + sim.TransferTime(bytes, r.PeakBandwidth())
		return got >= lb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanicOnBadLink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero bandwidth")
		}
	}()
	NewLink("bad", 0, 0)
}

func TestLookaheadBound(t *testing.T) {
	n := New()
	if got := n.LookaheadBound(); got != 0 {
		t.Fatalf("linkless fabric lookahead = %v, want 0", got)
	}
	n.AddLink("a", "b", 1e9, 500*sim.Nanosecond, 2)
	n.AddLink("b", "c", 1e9, 100*sim.Nanosecond, 1)
	n.AddLink("c", "d", 1e9, 900*sim.Nanosecond, 1)
	if got := n.LookaheadBound(); got != 100*sim.Nanosecond {
		t.Fatalf("lookahead = %v, want 100ns", got)
	}
	// Unknown nodes are an error, not a panic: generated topologies
	// feed arbitrary names here.
	if _, err := n.RouteTo("nope", "a"); err == nil {
		t.Fatal("RouteTo from unknown node should error")
	}
	if _, err := n.RouteTo("a", "nope"); err == nil {
		t.Fatal("RouteTo to unknown node should error")
	}
}
