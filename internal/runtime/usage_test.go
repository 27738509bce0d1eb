package runtime

import (
	"slices"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// TestUsageFoldsWorldsSeparately runs a balanced world and a smaller,
// imbalanced one and checks the process tally: group count and
// imbalance are the worst single world's, never a sum of group i over
// unrelated worlds, and the per-index event totals and the resumes
// still add up.
func TestUsageFoldsWorldsSeparately(t *testing.T) {
	usageMu.Lock()
	saved := usage
	usage = UsageSummary{}
	usageMu.Unlock()
	defer func() {
		usageMu.Lock()
		usage = saved
		usageMu.Unlock()
	}()
	run := func(ranks, extra int) *World {
		w := newWorld(t, "dragonfly-1k", ranks)
		for r := 0; r < ranks; r++ {
			sleeps := 1
			if r == 0 {
				sleeps += extra
			}
			w.Spawn(r, "sleeper", func(p *sim.Proc) {
				for i := 0; i < sleeps; i++ {
					p.Sleep(sim.Nanosecond)
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	worlds := []*World{run(16, 0), run(8, 30)}
	var events int64
	var perGroup []int64
	var resumes uint64
	worst := 0.0
	for _, w := range worlds {
		resumes += w.Resumes()
		var total, busiest int64
		for g := range w.Groups() {
			n := int64(w.eng.Sub(g).Executed())
			if g == len(perGroup) {
				perGroup = append(perGroup, 0)
			}
			perGroup[g] += n
			total += n
			busiest = max(busiest, n)
		}
		events += total
		worst = max(worst, float64(busiest)*float64(w.Groups())/float64(total))
	}
	groups := worlds[0].Groups()
	if groups <= worlds[1].Groups() {
		t.Fatalf("groups %d and %d: the balanced world must have more", groups, worlds[1].Groups())
	}
	u := Usage()
	var sum int64
	for _, e := range u.Events {
		sum += e
	}
	if u.Worlds != 2 || u.MaxGroups != groups || sum != events {
		t.Fatalf("worlds=%d groups<=%d events=%d, want 2, %d, %d", u.Worlds, u.MaxGroups, sum, groups, events)
	}
	if !slices.Equal(u.Events, perGroup) {
		t.Fatalf("per-group events %v, want the worlds' summed %v", u.Events, perGroup)
	}
	if u.Resumes != resumes || resumes == 0 {
		t.Fatalf("resumes=%d, want the worlds' %d (> 0)", u.Resumes, resumes)
	}
	if u.Imbalance != worst || worst <= 1.5 {
		t.Fatalf("imbalance %v, want the imbalanced world's %v (> 1.5)", u.Imbalance, worst)
	}
}

// TestUsageFoldsPoolStats runs two worlds with two window workers and
// one with one: the tally's pool counts are the sums of the worlds'
// own, every window of a two-worker world is pooled, and the
// one-worker world pools none. A two-worker run's first pooled window
// always wakes the helpers, so the woken count is folded too. Each rank
// sends one message to the far half of its world, so every world's
// barriers deliver, and the tally's deliveries are the worlds' sum.
func TestUsageFoldsPoolStats(t *testing.T) {
	usageMu.Lock()
	saved := usage
	usage = UsageSummary{}
	usageMu.Unlock()
	defer func() {
		usageMu.Lock()
		usage = saved
		usageMu.Unlock()
	}()
	cfg, err := machine.Get("dragonfly-1k")
	if err != nil {
		t.Fatal(err)
	}
	tp, ok := cfg.Params(machine.TwoSided)
	if !ok {
		t.Fatal("dragonfly-1k has no two-sided transport")
	}
	var want sim.PoolStats
	var deliveries uint64
	for _, c := range []struct{ ranks, shards int }{{16, 2}, {8, 2}, {8, 1}} {
		w, err := NewWorldSharded(cfg, c.ranks, c.shards)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < c.ranks; r++ {
			w.Spawn(r, "sleeper", func(p *sim.Proc) {
				w.Endpoint(r).Inject(tp, (r+c.ranks/2)%c.ranks, 8, 0, nil, nil)
				for i := 0; i < 1+r%3; i++ {
					p.Sleep(sim.Microsecond)
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if w.eng.Deliveries() == 0 {
			t.Fatalf("%d ranks at %d shards: no barrier delivery", c.ranks, c.shards)
		}
		deliveries += w.eng.Deliveries()
		p := w.eng.Pool()
		if c.shards > 1 && (p.Pooled == 0 || p.Pooled != w.Windows()) || c.shards == 1 && p.Pooled != 0 {
			t.Fatalf("%d ranks at %d shards: %d of %d windows pooled", c.ranks, c.shards, p.Pooled, w.Windows())
		}
		want.Pooled += p.Pooled
		want.Woken += p.Woken
		want.Joined += p.Joined
		want.Joins += p.Joins
		want.JoinWait += p.JoinWait
	}
	// Each pooled world is far below sim's wake minimum, so only its
	// first window wakes the helpers.
	if want.Woken != 2 {
		t.Fatalf("%d windows woke the helpers, want 2: the first of each pooled world", want.Woken)
	}
	if u := Usage(); u.Pool != want || u.Worlds != 3 || u.Deliveries != deliveries {
		t.Fatalf("tally pool %+v and %d deliveries over %d worlds, want %+v and %d over 3",
			u.Pool, u.Deliveries, u.Worlds, want, deliveries)
	}
}
