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

func TestUnknownMachineIsReportedNotPanic(t *testing.T) {
	if _, err := getMachine("no-such-machine"); err == nil {
		t.Fatal("want error for unknown machine")
	}
	// Through the Experiment.Run path: a run that needs a machine the
	// catalog lacks must surface the error, not crash the suite.
	exp := Experiment{ID: "ghost", Title: "ghost", Run: func(*Env) (*Output, error) {
		cfg, err := getMachine("no-such-machine")
		if err != nil {
			return nil, err
		}
		return &Output{ID: "ghost", Text: cfg.Name}, nil
	}}
	_, _, _, err := RunSuite([]Experiment{exp}, SuiteOptions{Scale: Quick, Jobs: 2})
	if err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Fatalf("unknown machine should propagate: %v", err)
	}
}
