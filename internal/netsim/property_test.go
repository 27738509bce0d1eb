package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"msgroofline/internal/sim"
)

// Property: link busy-time accounting is conserved — the sum of
// serialization times of all transfers equals the accumulated busy
// counters, and utilization never exceeds 1 over the span actually
// used.
func TestPropertyBusyConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := rand.New(rand.NewSource(seed))
		net := New()
		net.AddLink("a", "b", 10e9, 100*sim.Nanosecond, 1)
		r := mustRoute(t, net, "a", "b")
		var expectBusy sim.Time
		var last sim.Time
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			bytes := int64(rng.Intn(1<<16)) + 1
			expectBusy += sim.TransferTime(bytes, 10e9)
			if deliver := r.Transfer(at, bytes, 0); deliver > last {
				last = deliver
			}
			at += sim.Time(rng.Intn(1000)) * sim.Nanosecond
		}
		stats := net.Stats()
		if len(stats) != 1 {
			return false
		}
		s := stats[0]
		if s.BusyTime != expectBusy || s.Messages != int64(n) {
			return false
		}
		return s.BusyTime <= last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO — deliveries on one channel never reorder relative
// to injection order.
func TestPropertyFIFODelivery(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		rng := rand.New(rand.NewSource(seed))
		net := New()
		net.AddLink("a", "b", 5e9, 250*sim.Nanosecond, 1)
		r := mustRoute(t, net, "a", "b")
		var prev sim.Time
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			at += sim.Time(rng.Intn(500)) * sim.Nanosecond
			deliver := r.Transfer(at, int64(rng.Intn(4096)+1), 0)
			if deliver < prev {
				return false
			}
			prev = deliver
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: packet reservations never deliver before propagation
// latency and enforce occupancy spacing.
func TestPropertyPacketSpacing(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 2
		net := New()
		occ := 500 * sim.Nanosecond
		net.AddLink("a", "b", 32e9, 250*sim.Nanosecond, 1)
		r := mustRoute(t, net, "a", "b")
		var deliveries []sim.Time
		for i := 0; i < n; i++ {
			deliveries = append(deliveries, r.TransferPacket(0, occ, 0))
		}
		for i, d := range deliveries {
			want := sim.Time(i)*occ + 250*sim.Nanosecond
			if d != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
