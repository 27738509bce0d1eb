package netsim_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"msgroofline/internal/machine"
	"msgroofline/internal/netsim"
)

// routeNames renders a resolved route as hop names: the minimal path,
// then each adaptive alternative in order.
func routeNames(r *netsim.Route) string {
	alts := make([][]string, len(r.Alts()))
	for i, a := range r.Alts() {
		alts[i] = netsim.HopNames(a)
	}
	return fmt.Sprint(netsim.HopNames(r.Min()), alts)
}

// samplePairs returns every ordered node pair of a small fabric, or k
// pairs drawn from a fixed-seed stream on a large one (self pairs
// included either way).
func samplePairs(nodes []string, k int) [][2]string {
	var pairs [][2]string
	if len(nodes)*len(nodes) <= k {
		for _, a := range nodes {
			for _, b := range nodes {
				pairs = append(pairs, [2]string{a, b})
			}
		}
		return pairs
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() string {
		x = x*6364136223846793005 + 1442695040888963407
		return nodes[(x>>33)%uint64(len(nodes))]
	}
	for len(pairs) < k {
		a := next()
		b := a
		if len(pairs)%16 != 0 {
			b = next()
		}
		pairs = append(pairs, [2]string{a, b})
	}
	return pairs
}

// resolveAll resolves every pair on n and renders each route. With
// one worker it walks the pairs forward; with more, the workers share
// n and walk them backward, interleaved. A walk that never ends (one
// looping over stale scratch) fails after the deadline.
func resolveAll(n *netsim.Network, pairs [][2]string, workers int, deadline time.Duration) ([]string, error) {
	got := make([]string, len(pairs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(pairs); k += workers {
				i := k
				if workers > 1 {
					i = len(pairs) - 1 - k
				}
				r, err := n.RouteTo(pairs[i][0], pairs[i][1])
				if err != nil {
					errs[w] = err
					return
				}
				got[i] = routeNames(r)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		return nil, fmt.Errorf("resolution still running after %v", deadline)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return got, nil
}

// TestRouteResolutionMatchesReferenceBFS resolves node pairs on every
// catalog fabric in two orders — forward on one goroutine, backward
// from 4 goroutines sharing the network — and checks each route's hop
// sequence and adaptive alternative set against a reference BFS that
// allocates fresh slices per call. Resolution reuses pooled BFS
// scratch across calls and goroutines, so any state one walk leaves
// behind shows up as a route that differs from the reference.
func TestRouteResolutionMatchesReferenceBFS(t *testing.T) {
	const sample = 96
	for _, cfg := range machine.All() {
		t.Run(cfg.Name, func(t *testing.T) {
			fabric := func() *netsim.Network {
				inst, err := cfg.Instantiate(1)
				if err != nil {
					t.Fatal(err)
				}
				return inst.Net
			}
			ref := fabric()
			pairs := samplePairs(ref.Nodes(), sample)
			want := make([]string, len(pairs))
			for i, p := range pairs {
				min, ok := netsim.RefMin(ref, p[0], p[1])
				if !ok {
					t.Fatalf("%s -> %s unreachable", p[0], p[1])
				}
				want[i] = fmt.Sprint(min, netsim.RefAlts(ref, p[0], p[1]))
			}
			for _, workers := range []int{1, 4} {
				got, err := resolveAll(fabric(), pairs, workers, time.Minute)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				for i, p := range pairs {
					if got[i] != want[i] {
						t.Fatalf("%d workers, %s -> %s: route %s, reference %s", workers, p[0], p[1], got[i], want[i])
					}
				}
			}
		})
	}
}
