package runtime

import (
	"testing"

	"msgroofline/internal/sim"
)

// TestUsageFoldsWorldsSeparately runs a balanced world and a smaller,
// imbalanced one and checks the process tally: group count and
// imbalance are the worst single world's, never a sum of group i over
// unrelated worlds, and the per-index event totals still add up.
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
	worst := 0.0
	for _, w := range worlds {
		var total, busiest int64
		for _, s := range w.GroupStats() {
			total += s.Executed
			busiest = max(busiest, s.Executed)
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
	if u.Imbalance != worst || worst <= 1.5 {
		t.Fatalf("imbalance %v, want the imbalanced world's %v (> 1.5)", u.Imbalance, worst)
	}
}
