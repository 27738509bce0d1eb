package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"msgroofline/internal/sim"
)

// perturbedElapsed runs a small event cascade on a schedule-perturbed
// engine and returns the finish time. Each seed yields its own (still
// deterministic) schedule, so pool workers execute genuinely different
// event interleavings.
func perturbedElapsed(seed uint64) sim.Time {
	eng := sim.NewEngine()
	eng.SetPerturbation(&sim.Perturbation{
		Seed: seed, MaxJitter: sim.Microsecond,
	})
	for i := 0; i < 8; i++ {
		d := sim.Time(i) * sim.Nanosecond
		eng.At(d, func() {
			eng.At(eng.Now()+sim.Nanosecond, func() {})
		})
	}
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return eng.Now()
}

// TestMapDeterministicWithPerturbedEngines runs a pool of jobs that
// each drive a perturbed simulation; two pool runs (and a serial run)
// must produce identical index-ordered results regardless of which
// worker picked up which seed.
func TestMapDeterministicWithPerturbedEngines(t *testing.T) {
	fn := func(i int) (sim.Time, error) {
		return perturbedElapsed(uint64(i) + 1), nil
	}
	pooled, _, err := Map(4, 12, fn)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := Map(4, 12, fn)
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := Map(1, 12, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pooled {
		if pooled[i] != again[i] || pooled[i] != serial[i] {
			t.Fatalf("job %d not deterministic: %v / %v / %v", i, pooled[i], again[i], serial[i])
		}
	}
}

// TestCancelStopsIntakeWithPerturbedEngines checks first-error
// cancellation while workers are busy inside simulations: once a job
// fails, the scheduler must stop admitting new jobs and report the
// failure (plus any later-index failures already running) in index
// order.
func TestCancelStopsIntakeWithPerturbedEngines(t *testing.T) {
	const n = 64
	var started [n]bool
	failing := make(chan struct{})
	stats, err := Run(2, n, func(i int) error {
		started[i] = true
		if i == 3 {
			defer close(failing)
		}
		if i > 3 {
			// Jobs past 3 are handed out only once job 3 has been:
			// hold them until job 3 fails, and then for far longer
			// than the scheduler takes to record that failure, so the
			// check does not hinge on how the OS schedules the two
			// workers around job 3.
			<-failing
			time.Sleep(time.Millisecond)
		}
		perturbedElapsed(uint64(i))
		if i == 3 {
			return fmt.Errorf("job %d: injected failure", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("injected failure not reported")
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("wrong error: %v", err)
	}
	if stats.Started >= n {
		t.Fatalf("intake never stopped: started all %d jobs after early failure", stats.Started)
	}
	count := 0
	for _, s := range started {
		if s {
			count++
		}
	}
	if count != stats.Started {
		t.Fatalf("stats say %d started, observed %d", stats.Started, count)
	}
}

// TestPanicInsidePerturbedEngineBecomesError plants a panic inside a
// perturbed engine callback: the scheduler must convert it into an
// ordinary error (joined with any injected failures), not tear down
// the process, and must keep the sibling jobs' completed results.
func TestPanicInsidePerturbedEngineBecomesError(t *testing.T) {
	results, _, err := Map(3, 8, func(i int) (sim.Time, error) {
		if i == 5 {
			eng := sim.NewEngine()
			eng.SetPerturbation(&sim.Perturbation{Seed: 99, MaxJitter: sim.Microsecond})
			eng.At(sim.Nanosecond, func() { panic("boom at t=1ns") })
			eng.Run()
			return 0, errors.New("unreachable: panic expected")
		}
		return perturbedElapsed(uint64(i) + 1), nil
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	if !strings.Contains(err.Error(), "job 5 panicked") || !strings.Contains(err.Error(), "boom at t=1ns") {
		t.Fatalf("panic detail lost: %v", err)
	}
	for i := 0; i < 4; i++ {
		if want := perturbedElapsed(uint64(i) + 1); results[i] != want {
			t.Fatalf("completed result %d lost after sibling panic: got %v want %v", i, results[i], want)
		}
	}
}
