package runtime

import (
	"encoding/binary"
	"fmt"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/sim"
)

func channelParams(t testing.TB, name string) (*machine.Config, machine.TransportParams) {
	t.Helper()
	cfg, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tp, ok := cfg.Params(machine.MemChannel)
	if !ok {
		t.Fatalf("%s has no memory-channel transport", name)
	}
	return cfg, tp
}

// blankPut is a put into an n-byte Mem of its own on dst.
func blankPut(dst, n int) Put {
	mem := NewMem(n, n)
	return Put{Dst: dst, Mem: &mem}
}

// TestChannelOpenPaidOnce: the first send on a channel pays the open
// handshake, subsequent sends do not.
func TestChannelOpenPaidOnce(t *testing.T) {
	cfg, tp := channelParams(t, "perlmutter-cpu")
	w, err := NewWorldSharded(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ep := w.Endpoint(0)
	c := NewChannel(ep, 1, tp)
	put := blankPut(1, 8)
	var first, second sim.Time
	w.Spawn(0, "sender", func(p *sim.Proc) {
		start := p.Now()
		c.Put(p, put, Blank(8), ep.AutoChannel())
		first = p.Now() - start
		start = p.Now()
		c.Put(p, put, Blank(8), ep.AutoChannel())
		second = p.Now() - start
		c.Drain(p)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.opened {
		t.Fatal("channel never opened")
	}
	if got := first - second; got != tp.ChannelOpen {
		t.Fatalf("open cost = %v, want %v (first send %v, second %v)",
			got, tp.ChannelOpen, first, second)
	}
}

// TestChannelCreditsBound: the transport's credit limit bounds the
// sender's in-flight writes; Send blocks until a credit frees.
func TestChannelCreditsBound(t *testing.T) {
	cfg, tp := channelParams(t, "perlmutter-cpu")
	if tp.ChannelCredits <= 0 {
		t.Fatalf("calibration has no credit bound: %d", tp.ChannelCredits)
	}
	tp.ChannelCredits = 2
	w, err := NewWorldSharded(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ep := w.Endpoint(0)
	c := NewChannel(ep, 1, tp)
	put := blankPut(1, 1<<16)
	over := 0
	w.Spawn(0, "sender", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			c.Put(p, put, Blank(1<<16), ep.AutoChannel())
			if c.inFlight > 2 {
				over++
			}
		}
		c.Drain(p)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if over != 0 {
		t.Fatalf("in-flight exceeded the 2-credit bound %d times", over)
	}
	if c.inFlight != 0 {
		t.Fatalf("drain left %d writes in flight", c.inFlight)
	}
	if c.Sent() != 12 {
		t.Fatalf("sent %d writes, want 12", c.Sent())
	}
}

// FuzzChannelOrder fuzzes the channel resequencer: two sender ranks
// run fuzz-derived interleavings of channel sends, drains and compute
// phases toward a common destination, under a fuzz-seeded schedule
// perturbation plus network fault injection (latency spikes and
// drop-with-retransmit legally reorder the wire). Invariants checked:
//
//   - every channel applies its writes strictly in sequence order
//     (Applied reports all of them and no misordered one), regardless
//     of wire reordering;
//   - the writes land their payload ids in send order;
//   - every drain leaves the channel with zero writes in flight;
//   - a channel opens iff it carried at least one write.
func FuzzChannelOrder(f *testing.F) {
	f.Add([]byte{}, uint64(1))
	f.Add([]byte{3, 250, 17, 99}, uint64(42))
	f.Add([]byte{0xff, 0, 0xff, 0, 7, 7, 7, 7, 200, 13, 13, 13, 90, 90}, uint64(2026))
	f.Fuzz(func(t *testing.T, plan []byte, seed uint64) {
		if len(plan) > 64 {
			plan = plan[:64]
		}
		cfg, tp := channelParams(t, "perlmutter-cpu")
		w, err := NewWorldSharded(cfg, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		w.SetChaos(Chaos{
			Perturb: &sim.Perturbation{Seed: seed, MaxJitter: 2 * sim.Microsecond},
			Faults: &netsim.Faults{
				Seed:      seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
				DropProb:  0.02,
				SpikeProb: 0.05,
				MaxSpike:  3 * sim.Microsecond,
			},
		})
		senders := []int{0, 2}
		chans := make(map[int]*Channel, len(senders))
		applied := make(map[int][]uint64, len(senders))
		var errs []string
		for _, r := range senders {
			ep := w.Endpoint(r)
			c := NewChannel(ep, 1, tp)
			chans[r] = c
			rank := r
			// Each sender writes its ids into a Mem of its own on rank 1,
			// and the hook reads each one back as its write lands.
			mem := NewMem(8+31*64, 8+31*64)
			hook := func(int, int, int64, sim.Time, sim.Time) {
				applied[rank] = append(applied[rank], mem.Load(0))
			}
			w.Spawn(rank, fmt.Sprintf("sender%d", rank), func(p *sim.Proc) {
				var sent uint64
				for _, b := range plan {
					// Decorrelate the two senders' op streams.
					op := b ^ byte(rank*0xa5)
					switch {
					case op%8 < 5: // send, size from the high bits
						data := make([]byte, 8+int(op>>3)*64)
						binary.LittleEndian.PutUint64(data, sent)
						sent++
						c.Put(p, Put{Dst: 1, Mem: &mem, Hook: hook}, data, ep.AutoChannel())
					case op%8 == 5:
						c.Drain(p)
						if n := c.inFlight; n != 0 {
							errs = append(errs, fmt.Sprintf("rank %d: drain left %d in flight", rank, n))
						}
					default:
						p.Sleep(sim.Time(op) * 10 * sim.Nanosecond)
					}
				}
				c.Drain(p)
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		for _, msg := range errs {
			t.Error(msg)
		}
		for _, r := range senders {
			c := chans[r]
			if c.inFlight != 0 {
				t.Errorf("rank %d: %d writes in flight after final drain", r, c.inFlight)
			}
			if c.opened != (c.Sent() > 0) {
				t.Errorf("rank %d: opened=%v with %d writes", r, c.opened, c.Sent())
			}
			n, misordered, seq, pos := c.Applied()
			if misordered {
				t.Fatalf("rank %d: FIFO violated: write %d applied at position %d", r, seq, pos)
			}
			if n != c.Sent() {
				t.Fatalf("rank %d: %d of %d writes applied", r, n, c.Sent())
			}
			for i, id := range applied[r] {
				if id != uint64(i) {
					t.Fatalf("rank %d: writes landed out of order at %d: %v", r, i, applied[r])
				}
			}
		}
	})
}
