package mpi

import (
	"bytes"
	goruntime "runtime"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

func TestWinCreation(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 4)
	w, err := c.NewWin(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Local(2)) != 64 {
		t.Fatal("window size wrong")
	}
	if _, err := c.NewWinSizes([]int{1, 2}); err == nil {
		t.Fatal("wrong size count should fail")
	}
	if _, err := c.NewWinSizes([]int{1, -2, 3, 4}); err == nil {
		t.Fatal("negative size should fail")
	}
}

func TestPutFlushVisibility(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(16)
	const doneTag = 7
	var seen []byte
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(w, 1, 4, []byte{9, 8, 7})
			r.Flush(w, 1)
			// Flush completed the put remotely; notify the target.
			r.Send(1, doneTag, []byte{1})
		} else {
			r.Recv(0, doneTag)
			// The notification was issued strictly after the flush
			// returned, so the put must already be visible in this
			// rank's own window memory (window memory is owned by its
			// rank — visibility is always observed target-side).
			seen = append([]byte{}, w.Local(1)[4:7]...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen, []byte{9, 8, 7}) {
		t.Fatalf("after flush remote memory = %v", seen)
	}
}

func TestPutWithoutFlushNotYetVisible(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(16)
	var immediate byte
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(w, 1, 0, []byte{5})
			immediate = w.Local(1)[0] // no flush: still in flight
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if immediate != 0 {
		t.Fatal("put visible before any completion wait — no latency modeled?")
	}
}

func TestFourOpProtocolCalibration(t *testing.T) {
	// The paper's one-sided message: put(data), flush, put(signal),
	// flush — about 5 us on Perlmutter CPU (Fig 6b).
	c := newComm(t, "perlmutter-cpu", 128)
	data, _ := c.NewWin(1 << 12)
	sig, _ := c.NewWin(8)
	var elapsed sim.Time
	err := c.Launch(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		start := r.Now()
		r.Put(data, 127, 0, make([]byte, 100))
		r.Flush(data, 127)
		r.Put(sig, 127, 0, []byte{1, 0, 0, 0, 0, 0, 0, 0})
		r.Flush(sig, 127)
		elapsed = r.Now() - start
	})
	if err != nil {
		t.Fatal(err)
	}
	if us := elapsed.Microseconds(); us < 4.2 || us > 5.8 {
		t.Fatalf("4-op one-sided message = %.2fus, want ~5us", us)
	}
}

func TestFenceEpoch(t *testing.T) {
	// BSP pattern: everyone puts to the right neighbor, fence, read.
	c := newComm(t, "perlmutter-cpu", 8)
	w, _ := c.NewWin(8)
	got := make([]byte, 8)
	err := c.Launch(func(r *Rank) {
		right := (r.Rank() + 1) % r.Size()
		r.Put(w, right, 0, []byte{byte(r.Rank() + 1)})
		r.Fence(w)
		got[r.Rank()] = w.Local(r.Rank())[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk := range got {
		left := (rk - 1 + 8) % 8
		if got[rk] != byte(left+1) {
			t.Fatalf("rank %d read %d after fence, want %d", rk, got[rk], left+1)
		}
	}
}

func TestGetRoundTrip(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(16)
	copy(w.Local(1), []byte{1, 2, 3, 4})
	var got []byte
	var elapsed sim.Time
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			got = make([]byte, 3)
			start := r.Now()
			r.Get(w, 1, 1, got)
			elapsed = r.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{2, 3, 4}) {
		t.Fatalf("get = %v", got)
	}
	if elapsed < sim.FromMicroseconds(1) {
		t.Fatalf("get took %v, suspiciously fast for a round trip", elapsed)
	}
}

// TestCrossNodeGet reads across perlmutter-cpu's two sockets, which
// are two fabric nodes and so two node groups: ranks 0 and 127 Get
// from each other at once. Each request crosses the window barrier,
// and each WireLatency resolves a fabric route from the rank's worker
// goroutine. Bytes, elapsed times and the digest must not depend on
// the worker count.
func TestCrossNodeGet(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(4))
	cfg, err := machine.Get("perlmutter-cpu")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		got     [2][]byte
		elapsed [2]sim.Time
		digest  uint64
	}
	run := func(shards int) result {
		c, err := NewCommSharded(cfg, 128, shards)
		if err != nil {
			t.Fatal(err)
		}
		if g := c.World().Groups(); g != 2 {
			t.Fatalf("%d node groups, want 2", g)
		}
		w, _ := c.NewWin(8)
		copy(w.Local(0), "origin-0")
		copy(w.Local(127), "peer-127")
		var res result
		err = c.Launch(func(r *Rank) {
			if r.Rank() != 0 && r.Rank() != 127 {
				return
			}
			i := r.Rank() / 127
			res.got[i] = make([]byte, 8)
			start := r.Now()
			r.Get(w, 127-r.Rank(), 0, res.got[i])
			res.elapsed[i] = r.Now() - start
		})
		if err != nil {
			t.Fatal(err)
		}
		res.digest = c.Digest()
		return res
	}
	one := run(1)
	if string(one.got[0]) != "peer-127" || string(one.got[1]) != "origin-0" {
		t.Fatalf("gets read %q and %q", one.got[0], one.got[1])
	}
	// Each Get is the op overhead, the request flight (the fabric's
	// base latency plus half the software latency), then the 8-byte
	// reply's journey over idle links of the reverse direction.
	tp, _ := cfg.Params(machine.OneSided)
	ref, err := cfg.Instantiate(128)
	if err != nil {
		t.Fatal(err)
	}
	for i, peer := range []int{127, 0} {
		me := 127 - peer
		p, err := ref.Net.PathTo(ref.Places[peer].Node, ref.Places[me].Node)
		if err != nil {
			t.Fatal(err)
		}
		reply := tp.OpOverhead + p.BaseLatency() + tp.SoftLatency/2
		want := p.Transfer(reply+tp.SoftLatency+tp.CrossSocketExtra, 8, 0)
		if one.elapsed[i] != want {
			t.Fatalf("rank %d's get took %v, want %v", me, one.elapsed[i], want)
		}
	}
	four := run(4)
	for i := range one.got {
		if !bytes.Equal(one.got[i], four.got[i]) || one.elapsed[i] != four.elapsed[i] {
			t.Fatalf("get %d: shards 1 read %q in %v, shards 4 read %q in %v",
				i, one.got[i], one.elapsed[i], four.got[i], four.elapsed[i])
		}
	}
	if one.digest != four.digest {
		t.Fatalf("digest %x at shards 1, %x at shards 4", one.digest, four.digest)
	}
}

func TestCompareAndSwap(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(8)
	var first, second, final uint64
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			first = r.CompareAndSwap(w, 1, 0, 0, 100)  // succeeds
			second = r.CompareAndSwap(w, 1, 0, 0, 200) // fails: now 100
			final = w.Uint64At(1, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first CAS observed %d, want 0", first)
	}
	if second != 100 {
		t.Fatalf("second CAS observed %d, want 100", second)
	}
	if final != 100 {
		t.Fatalf("final value %d, want 100 (second CAS must fail)", final)
	}
}

func TestFetchAndAddAtomicity(t *testing.T) {
	// Every rank increments rank 0's counter concurrently; the sum
	// must be exact and each fetch value unique.
	const n = 8
	c := newComm(t, "perlmutter-cpu", n)
	w, _ := c.NewWin(8)
	seen := make(map[uint64]bool)
	err := c.Launch(func(r *Rank) {
		old := r.FetchAndAdd(w, 0, 0, 1)
		if seen[old] {
			t.Errorf("duplicate fetch value %d", old)
		}
		seen[old] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Uint64At(0, 0); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
}

func TestSpectrumOneSidedSlower(t *testing.T) {
	// Fig 3c: on Summit, the one-sided path is consistently slower
	// than two-sided. Compare one fully synchronized small message.
	oneSided := func() sim.Time {
		c := newComm(t, "summit-cpu", 42)
		data, _ := c.NewWin(4096)
		var el sim.Time
		if err := c.Launch(func(r *Rank) {
			if r.Rank() != 0 {
				return
			}
			start := r.Now()
			r.Put(data, 41, 0, make([]byte, 100))
			r.Flush(data, 41)
			r.Put(data, 41, 1024, []byte{1})
			r.Flush(data, 41)
			el = r.Now() - start
		}); err != nil {
			t.Fatal(err)
		}
		return el
	}()
	twoSided := func() sim.Time {
		c := newComm(t, "summit-cpu", 42)
		var el sim.Time
		if err := c.Launch(func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(41, 0, make([]byte, 100))
			} else if r.Rank() == 41 {
				start := r.Now()
				r.Recv(0, 0)
				el = r.Now() - start
			}
		}); err != nil {
			t.Fatal(err)
		}
		return el
	}()
	if oneSided <= twoSided {
		t.Fatalf("Spectrum one-sided (%v) should be slower than two-sided (%v)", oneSided, twoSided)
	}
	if ratio := float64(oneSided) / float64(twoSided); ratio < 1.5 {
		t.Fatalf("Summit one-sided/two-sided ratio = %.2f, want clearly worse", ratio)
	}
}

func TestWindowBoundsPanic(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(8)
	err := c.Launch(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range put")
			}
		}()
		r.Put(w, 1, 6, []byte{1, 2, 3, 4})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpStats(t *testing.T) {
	c := newComm(t, "perlmutter-cpu", 2)
	w, _ := c.NewWin(16)
	err := c.Launch(func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(w, 1, 0, []byte{1})
			r.Flush(w, 1)
			r.Get(w, 1, 0, make([]byte, 1))
			r.CompareAndSwap(w, 1, 8, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	puts, gets, atomics := w.OpStats()
	if puts != 1 || gets != 1 || atomics != 1 {
		t.Fatalf("op stats = %d/%d/%d", puts, gets, atomics)
	}
}

func TestNoOneSidedOnMachineWithoutRMA(t *testing.T) {
	// All CPU machines in the catalog have RMA; construct the error
	// path by checking a communicator with has1s forced off is
	// impossible through the public API — instead verify NewWin's
	// error when the transport is absent cannot trigger on catalog
	// machines.
	for _, name := range machine.Names() {
		cfg, _ := machine.Get(name)
		if cfg.Kind != machine.CPU {
			continue
		}
		c := newComm(t, name, 2)
		if _, err := c.NewWin(8); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
