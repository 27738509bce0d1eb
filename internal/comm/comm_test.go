// Contract tests for the transport layer: every Kind must satisfy the
// same observable semantics (epoch exchange, signaled delivery,
// atomics, trace-tap accounting), differing only in cost — the strict
// 4-op protocol must be measurably slower than fused put-with-signal
// on the same delivery stream, and the fused transports must record
// payload+8 flights where the strict ones record bare payloads.
package comm_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

func mc(t *testing.T, name string) *machine.Config {
	t.Helper()
	c, err := machine.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// machineFor picks a platform that supports the transport: the GPU
// catalog entry for the device-driven stacks (shmem, stream-
// triggered), the notified- and channel-calibrated CPU otherwise.
func machineFor(t *testing.T, kind comm.Kind) *machine.Config {
	t.Helper()
	if kind == comm.Shmem || kind == comm.StreamTriggered {
		return mc(t, "perlmutter-gpu")
	}
	return mc(t, "perlmutter-cpu")
}

func TestKindStringParseRoundTrip(t *testing.T) {
	for _, k := range comm.Kinds() {
		got, err := comm.ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if got, err := comm.ParseKind("gpu"); err != nil || got != comm.Shmem {
		t.Fatalf(`ParseKind("gpu") = %v, %v; want Shmem`, got, err)
	}
	if _, err := comm.ParseKind("tcp"); err == nil {
		t.Fatal("unknown transport name should fail")
	}
}

func TestSpecValidation(t *testing.T) {
	pm := mc(t, "perlmutter-cpu")
	bad := []comm.Spec{
		{Kind: comm.TwoSided, Ranks: 2, ExchangeSlots: 4, SlotBytes: 8},                                 // nil machine
		{Machine: pm, Kind: comm.TwoSided, Ranks: 0, ExchangeSlots: 4, SlotBytes: 8},                    // no ranks
		{Machine: pm, Kind: comm.TwoSided, Ranks: 2},                                                    // no geometry
		{Machine: pm, Kind: comm.TwoSided, Ranks: 2, ExchangeSlots: 4, SlotBytes: 8, SharedBytes: 64},   // two geometries
		{Machine: pm, Kind: comm.TwoSided, Ranks: 2, ExchangeSlots: 4},                                  // no slot stride
		{Machine: pm, Kind: comm.TwoSided, Ranks: 2, StreamSlots: []int{1}, SlotBytes: 8},               // wrong StreamSlots len
		{Machine: pm, Kind: comm.Kind(99), Ranks: 2, ExchangeSlots: 4, SlotBytes: 8},                    // unknown kind
		{Machine: mc(t, "summit-cpu"), Kind: comm.Notified, Ranks: 2, ExchangeSlots: 4, SlotBytes: 8},   // no notified params
		{Machine: mc(t, "perlmutter-cpu"), Kind: comm.Shmem, Ranks: 2, ExchangeSlots: 4, SlotBytes: 8},  // shmem needs a GPU machine
		{Machine: pm, Kind: comm.StreamTriggered, Ranks: 2, ExchangeSlots: 4, SlotBytes: 8},             // stream-triggered needs a GPU machine
		{Machine: mc(t, "summit-cpu"), Kind: comm.MemChannel, Ranks: 2, ExchangeSlots: 4, SlotBytes: 8}, // no channel params on InfiniBand
	}
	for i, spec := range bad {
		if _, err := comm.New(spec); err == nil {
			t.Fatalf("spec %d (%+v) should fail", i, spec)
		}
	}
}

// TestExchangeContract runs a multi-epoch neighbor exchange on every
// transport: 4 ranks in a ring, each sending left and right per epoch.
// The received payloads must match what the peer sent that epoch —
// including across epoch parity flips, which exercise the window
// transports' double buffering.
func TestExchangeContract(t *testing.T) {
	const ranks, slots, slotBytes, epochs = 4, 2, 32, 5
	payload := func(src, epoch int) []byte {
		b := make([]byte, slotBytes)
		for i := range b {
			b[i] = byte(src*31 + epoch*7 + i)
		}
		return b
	}
	for _, kind := range comm.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			tr, err := comm.New(comm.Spec{
				Machine: machineFor(t, kind), Kind: kind, Ranks: ranks,
				ExchangeSlots: slots, SlotBytes: slotBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			fail := make(chan string, ranks*epochs)
			err = tr.Launch(func(ep comm.Endpoint) {
				me := ep.Rank()
				left := (me + ranks - 1) % ranks
				right := (me + 1) % ranks
				for e := 0; e < epochs; e++ {
					// Slot 0 receives from the left neighbor, slot 1
					// from the right.
					sends := []comm.Msg{
						{Peer: right, Slot: 0, Data: payload(me, e)},
						{Peer: left, Slot: 1, Data: payload(me, e)},
					}
					recvs := []comm.Expect{
						{Peer: left, Slot: 0, Bytes: slotBytes},
						{Peer: right, Slot: 1, Bytes: slotBytes},
					}
					got := ep.Exchange(e, sends, recvs)
					if !bytes.Equal(got[0][:slotBytes], payload(left, e)) {
						fail <- fmt.Sprintf("rank %d epoch %d: bad payload from left %d", me, e, left)
					}
					if !bytes.Equal(got[1][:slotBytes], payload(right, e)) {
						fail <- fmt.Sprintf("rank %d epoch %d: bad payload from right %d", me, e, right)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			close(fail)
			for msg := range fail {
				t.Error(msg)
			}
			if tr.Elapsed() <= 0 {
				t.Fatal("exchange consumed no simulated time")
			}
			sum := tr.Recorder().Summarize(tr.Elapsed())
			if want := ranks * 2 * epochs; sum.Messages != want {
				t.Fatalf("recorded %d messages, want %d", sum.Messages, want)
			}
			if sum.Syncs != ranks*epochs {
				t.Fatalf("recorded %d syncs, want %d", sum.Syncs, ranks*epochs)
			}
		})
	}
}

// TestStreamContract checks signaled delivery: the payload must be
// fully visible when WaitAnySlot returns its slot, on every transport
// and for every slot independent of arrival order.
func TestStreamContract(t *testing.T) {
	const n, slotBytes = 6, 40
	payload := func(slot int) []byte {
		b := make([]byte, slotBytes)
		for i := range b {
			b[i] = byte(slot*13 + i + 1)
		}
		return b
	}
	for _, kind := range comm.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			tr, err := comm.New(comm.Spec{
				Machine: machineFor(t, kind), Kind: kind, Ranks: 2,
				StreamSlots: []int{0, n}, SlotBytes: slotBytes,
				PollCheck: 40 * sim.Nanosecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			fail := make(chan string, n)
			err = tr.Launch(func(ep comm.Endpoint) {
				switch ep.Rank() {
				case 0:
					for s := 0; s < n; s++ {
						ep.Deliver(1, s, payload(s))
					}
					ep.Quiet()
				case 1:
					seen := make([]bool, n)
					for got := 0; got < n; got++ {
						slot, data := ep.WaitAnySlot()
						if slot < 0 || slot >= n || seen[slot] {
							fail <- fmt.Sprintf("bad or repeated slot %d", slot)
							continue
						}
						seen[slot] = true
						if !bytes.Equal(data[:slotBytes], payload(slot)) {
							fail <- fmt.Sprintf("slot %d: payload not visible at signal", slot)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			close(fail)
			for msg := range fail {
				t.Error(msg)
			}
			sum := tr.Recorder().Summarize(tr.Elapsed())
			if sum.Messages != n {
				t.Fatalf("recorded %d messages, want %d", sum.Messages, n)
			}
		})
	}
}

// TestTraceTapByteSignature pins the op accounting the paper's
// Table II depends on: strict transports record the bare payload per
// delivery (the signal put is protocol overhead, charged but not
// recorded), while fused put-with-signal transports record payload+8
// as one flight.
func TestTraceTapByteSignature(t *testing.T) {
	const slotBytes = 64
	for _, kind := range comm.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			tr, err := comm.New(comm.Spec{
				Machine: machineFor(t, kind), Kind: kind, Ranks: 2,
				StreamSlots: []int{0, 1}, SlotBytes: slotBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			err = tr.Launch(func(ep comm.Endpoint) {
				switch ep.Rank() {
				case 0:
					ep.Deliver(1, 0, make([]byte, slotBytes))
					ep.Quiet()
				case 1:
					ep.WaitAnySlot()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(slotBytes)
			switch kind {
			case comm.Notified, comm.Shmem, comm.StreamTriggered, comm.MemChannel:
				want += 8 // PGAS: the signal word rides the payload flight
			}
			sum := tr.Recorder().Summarize(tr.Elapsed())
			if sum.MinBytes != want || sum.MaxBytes != want {
				t.Fatalf("%s recorded %d-%d bytes/msg, want %d", kind, sum.MinBytes, sum.MaxBytes, want)
			}
		})
	}
}

// TestStrictSlowerThanNotified pins the paper's §V comparison at the
// transport level: the same delivery stream costs more on the strict
// 4-op protocol (put, flush, put, flush + Listing-1 polling) than via
// fused notified access (one 2-op flight).
func TestStrictSlowerThanNotified(t *testing.T) {
	run := func(kind comm.Kind) sim.Time {
		tr, err := comm.New(comm.Spec{
			Machine: mc(t, "perlmutter-cpu"), Kind: kind, Ranks: 2,
			StreamSlots: []int{0, 16}, SlotBytes: 64,
			PollCheck: 40 * sim.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = tr.Launch(func(ep comm.Endpoint) {
			switch ep.Rank() {
			case 0:
				for s := 0; s < 16; s++ {
					ep.Deliver(1, s, make([]byte, 64))
				}
				ep.Quiet()
			case 1:
				for got := 0; got < 16; got++ {
					ep.WaitAnySlot()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Elapsed()
	}
	strict, notified := run(comm.OneSided), run(comm.Notified)
	if strict <= notified {
		t.Fatalf("strict 4-op (%v) should be slower than notified (%v)", strict, notified)
	}
}

// TestAtomicsContract checks remote CAS/FetchAdd semantics on every
// atomics-capable transport: CAS claims exactly once, FetchAdd hands
// out unique tickets, and AtomicCount sees every operation.
func TestAtomicsContract(t *testing.T) {
	for _, kind := range comm.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			tr, err := comm.New(comm.Spec{
				Machine: machineFor(t, kind), Kind: kind, Ranks: 3,
				SharedBytes: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Caps().Atomics {
				if kind != comm.TwoSided {
					t.Fatalf("%s must support atomics", kind)
				}
				return // two-sided kernels use BcastPut/CollectPuts instead
			}
			wins := make(chan int, 3)
			err = tr.Launch(func(ep comm.Endpoint) {
				// Every rank CASes rank 0's word 0 and takes a ticket
				// from word 1.
				if old := ep.CAS(0, 0, 0, uint64(ep.Rank())+1); old == 0 {
					wins <- ep.Rank()
				}
				ep.FetchAdd(0, 8, 1)
				ep.FlushLocal(0)
			})
			if err != nil {
				t.Fatal(err)
			}
			close(wins)
			var winners int
			for range wins {
				winners++
			}
			if winners != 1 {
				t.Fatalf("%d ranks won the CAS, want exactly 1", winners)
			}
			heap := tr.SharedBytes(0)
			if heap == nil {
				t.Fatal("no shared heap exposed")
			}
			tickets := uint64(heap[8]) // counts fit one byte
			if tickets != 3 {
				t.Fatalf("fetch-add counter = %d, want 3", tickets)
			}
			if got := tr.AtomicCount(); got != 6 {
				t.Fatalf("AtomicCount = %d, want 6 (3 CAS + 3 FetchAdd)", got)
			}
		})
	}
}

// TestBroadcastContract checks the two-sided fallback: one BcastPut
// round delivers to all peers and CollectPuts returns exactly
// Size()-1 payloads.
func TestBroadcastContract(t *testing.T) {
	const ranks = 4
	tr, err := comm.New(comm.Spec{
		Machine: mc(t, "perlmutter-cpu"), Kind: comm.TwoSided, Ranks: ranks,
		SharedBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	fail := make(chan string, ranks)
	err = tr.Launch(func(ep comm.Endpoint) {
		me := ep.Rank()
		ep.BcastPut([]byte{byte(me)})
		got := ep.CollectPuts()
		if len(got) != ranks-1 {
			fail <- fmt.Sprintf("rank %d collected %d payloads, want %d", me, len(got), ranks-1)
			return
		}
		seen := map[byte]bool{}
		for _, p := range got {
			seen[p[0]] = true
		}
		if len(seen) != ranks-1 || seen[byte(me)] {
			fail <- fmt.Sprintf("rank %d saw senders %v", me, seen)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}

// TestForkJoinLanes checks the concurrency contract: shmem grants the
// requested GPU thread-block lanes, CPU transports run inline on one.
func TestForkJoinLanes(t *testing.T) {
	for _, kind := range comm.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			tr, err := comm.New(comm.Spec{
				Machine: machineFor(t, kind), Kind: kind, Ranks: 2,
				SharedBytes: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			lanesSeen := make(chan int, 2*8)
			err = tr.Launch(func(ep comm.Endpoint) {
				want := 4
				lanes := ep.Lanes(want)
				if kind == comm.Shmem && lanes != want {
					t.Errorf("shmem Lanes(%d) = %d", want, lanes)
				}
				if kind != comm.Shmem && lanes != 1 {
					t.Errorf("%s Lanes(%d) = %d, want 1", kind, want, lanes)
				}
				ep.ForkJoin(lanes, func(lane comm.Endpoint, i int) {
					lanesSeen <- i
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			close(lanesSeen)
			var n int
			for range lanesSeen {
				n++
			}
			wantBodies := 2 // one lane per rank on CPU transports
			if kind == comm.Shmem {
				wantBodies = 2 * 4
			}
			if n != wantBodies {
				t.Fatalf("ForkJoin ran %d bodies, want %d", n, wantBodies)
			}
		})
	}
}

// TestNoTrace checks the zero-cost path: no recorder exists, and the
// simulated clock is bit-identical with and without tracing (the tap
// must never affect timing, only observe it).
func TestNoTrace(t *testing.T) {
	run := func(noTrace bool) (sim.Time, bool) {
		tr, err := comm.New(comm.Spec{
			Machine: mc(t, "perlmutter-cpu"), Kind: comm.OneSided, Ranks: 2,
			StreamSlots: []int{0, 4}, SlotBytes: 32, NoTrace: noTrace,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = tr.Launch(func(ep comm.Endpoint) {
			switch ep.Rank() {
			case 0:
				for s := 0; s < 4; s++ {
					ep.Deliver(1, s, make([]byte, 32))
				}
			case 1:
				for got := 0; got < 4; got++ {
					ep.WaitAnySlot()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Elapsed(), tr.Recorder() == nil
	}
	traced, recNilTraced := run(false)
	bare, recNilBare := run(true)
	if recNilTraced {
		t.Fatal("traced run lost its recorder")
	}
	if !recNilBare {
		t.Fatal("NoTrace run still built a recorder")
	}
	if traced != bare {
		t.Fatalf("tracing changed simulated time: %v vs %v", traced, bare)
	}
}

// TestMemChannelOpensOnFirstWrite checks that a memory-channel rank
// holds only the channels it has written to, in destination order
// whatever order it wrote in, and that a rank that never wrote holds
// none.
func TestMemChannelOpensOnFirstWrite(t *testing.T) {
	const ranks, slotBytes = 64, 16
	slots := make([]int, ranks)
	for r := range slots {
		slots[r] = 1
	}
	tr, err := comm.New(comm.Spec{
		Machine: mc(t, "perlmutter-cpu"), Kind: comm.MemChannel, Ranks: ranks,
		StreamSlots: slots, SlotBytes: slotBytes, NoTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tr.Launch(func(ep comm.Endpoint) {
		switch ep.Rank() {
		case 0:
			ep.Deliver(5, 0, make([]byte, slotBytes))
			ep.Deliver(2, 0, make([]byte, slotBytes))
			ep.Quiet()
		case 2, 5:
			ep.WaitAnySlot()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := tr.(comm.ChannelInspector)
	var dsts []int
	for _, c := range ins.Channels(0) {
		if c.Sent() != 1 {
			t.Errorf("channel to rank %d carried %d writes, want 1", c.Dst(), c.Sent())
		}
		dsts = append(dsts, c.Dst())
	}
	if fmt.Sprint(dsts) != "[2 5]" {
		t.Errorf("rank 0 channels go to %v, want [2 5]", dsts)
	}
	if n := len(ins.Channels(1)); n != 0 {
		t.Errorf("rank 1 never wrote but holds %d channels", n)
	}
}

// TestTwoSidedChaosUnordered: the ordering switch of Spec.Chaos must
// reach a two-sided world built by comm.New. Under faults (drops and
// latency spikes reorder the wire), a stream of tagged sends received
// with ANY_TAG lands in send order while the switch is off, and out of
// send order on some seed while it is on.
func TestTwoSidedChaosUnordered(t *testing.T) {
	const msgs = 16
	// order returns the tags rank 1 received, in receive order.
	order := func(seed uint64, unordered bool) []int {
		tr, err := comm.New(comm.Spec{
			Machine: mc(t, "perlmutter-cpu"), Kind: comm.TwoSided, Ranks: 2,
			StreamSlots: []int{0, msgs}, SlotBytes: 8, NoTrace: true,
			Chaos: runtime.Chaos{Unordered: unordered, Faults: &netsim.Faults{
				Seed: seed, DropProb: 0.1, SpikeProb: 0.5, MaxSpike: 3 * sim.Microsecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		err = tr.Launch(func(ep comm.Endpoint) {
			switch ep.Rank() {
			case 0:
				for s := 0; s < msgs; s++ {
					ep.Deliver(1, s, make([]byte, 8))
				}
			case 1:
				for n := 0; n < msgs; n++ {
					slot, _ := ep.WaitAnySlot()
					got = append(got, slot)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	reordered := 0
	for seed := uint64(1); seed <= 8; seed++ {
		if got := order(seed, false); !slices.IsSorted(got) {
			t.Fatalf("seed %d: ordered two-sided stream landed as %v", seed, got)
		}
		if !slices.IsSorted(order(seed, true)) {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("the ordering switch never reordered a two-sided stream: it does not reach comm.New(TwoSided)")
	}
}
