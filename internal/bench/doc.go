// Package bench is the microbenchmark harness behind the paper's
// bandwidth figures: sustained bandwidth as a function of message
// size and messages per synchronization for two-sided MPI, one-sided
// MPI, and GPU-initiated put-with-signal (Figs 1, 3, 4), atomic
// compare-and-swap latencies (§III-C), and the message-splitting
// experiment (Fig 10). Every point is measured by running the actual
// simulated stack, exactly as the paper measured its dots on real
// machines; the fitted LogGP parameters then draw the ceilings.
//
// The single driver is Sweep(cfg, Spec): it enumerates the (msg/sync,
// size) grid, runs every point as an isolated simulation on an
// internal/sched worker pool (Spec.Jobs wide), and collects points in
// grid order — so results are byte-identical at any job count. The
// callers name the protocol via Spec.Transport.
//
// # The v1 API surface
//
// This is the surviving, stable surface after the v1 cleanup; the
// deprecated per-transport entry points and the flat promoted
// scheduler aliases are gone.
//
//   - Sweep(cfg, Spec) -> *Result is the grid driver. Spec carries
//     Transport, Ranks, Ns, Sizes, Jobs, Cache, and Shards; every
//     knob except the grid itself (Transport/Ranks/Ns/Sizes) is
//     host-side and can never change simulated output.
//   - PointSpec / ExpandPoints / MeasurePoint are the point-level
//     API the dedup planner composes with; PointSpec.Key is the
//     content address (Shards deliberately excluded).
//   - Result.Sched is a *RunStats with exactly two sub-structs:
//     Host (*sched.Stats, worker-pool wall-time metadata) and Cache
//     (pointcache.Stats, hit/miss counters). Consumers name
//     Sched.Host.Jobs etc. explicitly — the pre-split promoted
//     fields (Sched.Jobs, Sched.Wall, ...) no longer exist.
//   - CASLatencyCached / OneSidedCASLatencyCached measure the
//     atomic probes (a nil cache simulates directly);
//     SweepSplit / SweepSplitCached run
//     the Fig 10 experiment; Baseline fits roofline ceilings.
//
// All stats carried on Result.Sched are measurement-host metadata:
// they vary run to run and must never be mixed into simulated output.
package bench
