package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"msgroofline/internal/pointcache"
)

func fakeExperiment(id string, delay time.Duration, fail error) Experiment {
	return Experiment{
		ID:    id,
		Title: "fake " + id,
		Run: func(*Env) (*Output, error) {
			time.Sleep(delay)
			if fail != nil {
				return nil, fail
			}
			return &Output{ID: id, Title: "fake " + id, Text: id + " body\n"}, nil
		},
	}
}

func TestRunSuitePreservesRegistryOrder(t *testing.T) {
	// Later experiments finish first (shorter sleeps), but outputs
	// must come back in submission order.
	var exps []Experiment
	for i := 0; i < 6; i++ {
		exps = append(exps, fakeExperiment(fmt.Sprintf("e%d", i), time.Duration(6-i)*time.Millisecond, nil))
	}
	outs, stats, _, err := RunSuite(exps, SuiteOptions{Scale: Quick, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(exps) {
		t.Fatalf("outputs = %d", len(outs))
	}
	for i, o := range outs {
		if want := fmt.Sprintf("e%d", i); o.ID != want {
			t.Fatalf("outs[%d].ID = %s, want %s", i, o.ID, want)
		}
	}
	if stats.Jobs != len(exps) || len(stats.JobWall) != len(exps) {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRunSuiteReportsFailureWithID(t *testing.T) {
	boom := errors.New("synthetic failure")
	exps := []Experiment{
		fakeExperiment("ok1", 0, nil),
		fakeExperiment("bad", 0, boom),
		fakeExperiment("ok2", 0, nil),
	}
	_, _, _, err := RunSuite(exps, SuiteOptions{Scale: Quick, Jobs: 1})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "bad") || !errors.Is(err, boom) {
		t.Fatalf("error should name the failing experiment and wrap its cause: %v", err)
	}
}

func TestRunSuiteMatchesSequentialOutput(t *testing.T) {
	// A cheap real slice of the registry must render identically
	// sequentially and concurrently (the cmd/experiments guarantee).
	var exps []Experiment
	for _, id := range []string{"tableI", "fig2", "fig7"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	render := func(outs []*Output) string {
		var b strings.Builder
		for _, o := range outs {
			b.WriteString(o.Render())
		}
		return b.String()
	}
	seq, _, _, err := RunSuite(exps, SuiteOptions{Scale: Quick, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, _, err := RunSuite(exps, SuiteOptions{Scale: Quick, Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if render(seq) != render(par) {
		t.Fatal("concurrent suite output diverged from sequential")
	}
}

func TestPlannerDedupsCrossFigureOverlap(t *testing.T) {
	// Fig1 and Fig3 share a sweep, and each now simulates it itself:
	// there is no planner or cache left. The benchmark still passes a
	// pointcache.Cache, so the suite must render exactly as it does
	// for the CLI, which passes none.
	var exps []Experiment
	for _, id := range []string{"fig1", "fig3"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	cache, err := pointcache.New(pointcache.Mem, "")
	if err != nil {
		t.Fatal(err)
	}
	outs, _, _, err := RunSuite(exps, SuiteOptions{Scale: Quick, Jobs: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, _, err := RunSuite(exps, SuiteOptions{Scale: Quick, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i].Render() != plain[i].Render() {
			t.Fatalf("%s: output with the deprecated cache diverged", outs[i].ID)
		}
	}
}

func TestRunSuiteStartsCostliestFirst(t *testing.T) {
	// One worker runs the experiments in start order: descending Cost,
	// ties in the given order. Outputs and per-experiment wall times
	// still come back in the given order.
	var started []string
	exp := func(id string, cost int, delay time.Duration) Experiment {
		return Experiment{ID: id, Title: id, Cost: cost, Run: func(*Env) (*Output, error) {
			started = append(started, id)
			time.Sleep(delay)
			return &Output{ID: id}, nil
		}}
	}
	exps := []Experiment{
		exp("a", 0, 0), exp("b", 5, 0), exp("c", 0, 0), exp("slow", 9, 20*time.Millisecond), exp("d", 5, 0),
	}
	outs, stats, _, err := RunSuite(exps, SuiteOptions{Scale: Quick, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(started, " "), "slow b d a c"; got != want {
		t.Fatalf("start order %q, want %q", got, want)
	}
	for i, o := range outs {
		if o.ID != exps[i].ID {
			t.Fatalf("outs[%d].ID = %s, want %s", i, o.ID, exps[i].ID)
		}
	}
	if stats.JobWall[3] < 20*time.Millisecond || stats.JobWall[0] >= 20*time.Millisecond {
		t.Fatalf("wall times not in experiment order: %v", stats.JobWall)
	}
}
