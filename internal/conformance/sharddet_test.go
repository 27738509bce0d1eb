package conformance

import (
	"fmt"
	"testing"

	"msgroofline/internal/sched"
)

// workloadCases returns every conformance cell: all three paper
// workloads on every transport they support plus the four protocol
// micro-kernels. Every cell runs on the coupled engine and accepts a
// Shards (worker-count) knob, so all of them must be shard-invariant.
func workloadCases(t *testing.T) []kcase {
	t.Helper()
	out := allCases()
	if len(out) != 22 {
		t.Fatalf("expected 22 conformance cells, got %d", len(out))
	}
	return out
}

// withShards returns ch with the shard count recorded.
func withShards(ch chaos, shards int) chaos {
	ch.shards = shards
	return ch
}

// TestShardCountInvariantUnderPerturbation is the shard-determinism
// suite of the conformance matrix: every cell, replayed under 50
// perturbation+fault seeds, must produce byte-equal semantic
// fingerprints, bitwise-equal float outcomes, and identical
// event-order digests at shards=1 and shards=4. On the coupled
// engine -shards sets only the worker count — the node-group
// decomposition, window schedule, and event-key total order are
// topology-determined — so any divergence means per-rank state
// leaked across a group boundary outside the barrier protocol.
func TestShardCountInvariantUnderPerturbation(t *testing.T) {
	const seeds = 50
	o := Options{Seeds: seeds}.withDefaults()
	cases := workloadCases(t)
	type mismatch struct{ detail string }
	perSeed, _, err := sched.Map(0, seeds, func(i int) ([]mismatch, error) {
		seed := uint64(i)
		var ms []mismatch
		for _, kc := range cases {
			// Note: seedChaos must be called once per run — the
			// perturbation stream is stateful — so build two
			// identically-seeded chaos values.
			ref, err := runCase(kc, withShards(o.seedChaos(seed), 1))
			if err != nil {
				return nil, fmt.Errorf("%s/%s seed=%d shards=1: %w", kc.kernel, kc.transport, seed, err)
			}
			got, err := runCase(kc, withShards(o.seedChaos(seed), 4))
			if err != nil {
				return nil, fmt.Errorf("%s/%s seed=%d shards=4: %w", kc.kernel, kc.transport, seed, err)
			}
			if got.fp != ref.fp {
				ms = append(ms, mismatch{fmt.Sprintf("%s/%s seed=%d: fp %q != %q",
					kc.kernel, kc.transport, seed, clip(got.fp), clip(ref.fp))})
			}
			if len(got.floats) != len(ref.floats) {
				ms = append(ms, mismatch{fmt.Sprintf("%s/%s seed=%d: %d floats != %d",
					kc.kernel, kc.transport, seed, len(got.floats), len(ref.floats))})
			} else {
				for j := range ref.floats {
					// Bitwise equality, not relTol: identical chaos at a
					// different shard count must replay the identical
					// schedule, so even accumulation order is pinned.
					if got.floats[j] != ref.floats[j] {
						ms = append(ms, mismatch{fmt.Sprintf("%s/%s seed=%d: floats[%d] %v != %v",
							kc.kernel, kc.transport, seed, j, got.floats[j], ref.floats[j])})
						break
					}
				}
			}
			if got.digest != ref.digest {
				ms = append(ms, mismatch{fmt.Sprintf("%s/%s seed=%d: event-order digest %016x != %016x",
					kc.kernel, kc.transport, seed, got.digest, ref.digest)})
			}
		}
		return ms, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, ms := range perSeed {
		for _, m := range ms {
			count++
			if count <= 10 {
				t.Error(m.detail)
			}
		}
	}
	if count > 10 {
		t.Errorf("... and %d more mismatches", count-10)
	}
}

// TestShardCountInvariantCleanDigests pins the clean-schedule case:
// with no perturbation at all, every workload cell's event-order
// digest must be identical at shards 1, 2, and 4, and nonzero (the
// digest actually folded events).
func TestShardCountInvariantCleanDigests(t *testing.T) {
	for _, kc := range workloadCases(t) {
		ref, err := runCase(kc, chaos{shards: 1})
		if err != nil {
			t.Fatalf("%s/%s: %v", kc.kernel, kc.transport, err)
		}
		if ref.digest == 0 {
			t.Fatalf("%s/%s: zero event-order digest", kc.kernel, kc.transport)
		}
		for _, shards := range []int{2, 4} {
			got, err := runCase(kc, chaos{shards: shards})
			if err != nil {
				t.Fatalf("%s/%s shards=%d: %v", kc.kernel, kc.transport, shards, err)
			}
			if got.digest != ref.digest || got.fp != ref.fp {
				t.Errorf("%s/%s shards=%d: digest %016x fp %q, want %016x %q",
					kc.kernel, kc.transport, shards, got.digest, clip(got.fp), ref.digest, clip(ref.fp))
			}
		}
	}
}
