package runtime

import (
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// TestSameGroupDeliveryIsOneEvent pins the same-group half of Inject's
// contract with pooled landings: a self-send and a send to another
// rank of the same node group each run remote, then local, at the
// delivery time, inside one event (the engine's executed count does
// not move between them).
func TestSameGroupDeliveryIsOneEvent(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 4)
	if w.GroupOf(0) != w.GroupOf(1) {
		t.Fatal("ranks 0 and 1 must share a node group")
	}
	tp, _ := w.Inst.Cfg.Params(machine.TwoSided)
	eng := w.EngineOf(0)
	type call struct {
		half  string
		at    sim.Time
		event uint64
	}
	calls := map[int][]call{}
	half := func(dst int, name string) func(sim.Time) {
		return func(at sim.Time) {
			calls[dst] = append(calls[dst], call{name, at, eng.Executed()})
		}
	}
	w.Spawn(0, "sender", func(p *sim.Proc) {
		for round := 0; round < 3; round++ {
			for _, dst := range []int{0, 1} {
				w.Endpoint(0).Inject(tp, dst, 64, 0, half(dst, "remote"), half(dst, "local"))
			}
			p.Sleep(sim.FromNanoseconds(10000))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []int{0, 1} {
		got := calls[dst]
		if len(got) != 6 {
			t.Fatalf("dst %d: %d callbacks, want 6", dst, len(got))
		}
		for i := 0; i < len(got); i += 2 {
			r, l := got[i], got[i+1]
			if r.half != "remote" || l.half != "local" {
				t.Fatalf("dst %d: callbacks %q then %q, want remote then local", dst, r.half, l.half)
			}
			if r.at != l.at || r.event != l.event {
				t.Fatalf("dst %d: remote at %v (event %d), local at %v (event %d): want one event",
					dst, r.at, r.event, l.at, l.event)
			}
		}
	}
}

// TestCrossGroupDeliveryHalves pins the cross-group half: the remote
// callback runs on the target's engine and the local one on the
// sender's, both at the delivery time, as separate events, and a
// flight without a remote callback still lands.
func TestCrossGroupDeliveryHalves(t *testing.T) {
	w := newWorld(t, "perlmutter-cpu", 128)
	if w.GroupOf(0) == w.GroupOf(127) {
		t.Fatal("ranks 0 and 127 must sit in different node groups")
	}
	tp, _ := w.Inst.Cfg.Params(machine.TwoSided)
	var remoteAt, localAt, localOnlyAt []sim.Time
	w.Spawn(0, "sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			w.Endpoint(0).Inject(tp, 127, 64, 0,
				func(at sim.Time) { remoteAt = append(remoteAt, at) },
				func(at sim.Time) { localAt = append(localAt, at) })
			w.Endpoint(0).Inject(tp, 127, 64, 0, nil, func(at sim.Time) { localOnlyAt = append(localOnlyAt, at) })
			p.Sleep(sim.FromNanoseconds(20000))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(remoteAt) != 4 || len(localAt) != 4 || len(localOnlyAt) != 4 {
		t.Fatalf("callbacks: %d remote, %d local, %d local-only; want 4 each", len(remoteAt), len(localAt), len(localOnlyAt))
	}
	for i := range remoteAt {
		if remoteAt[i] != localAt[i] {
			t.Fatalf("message %d: remote at %v, local at %v", i, remoteAt[i], localAt[i])
		}
	}
}
