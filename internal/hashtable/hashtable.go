// Package hashtable implements the paper's third workload: a
// distributed hash table with an overflow heap (§III-C), representing
// data analytics with random access into distributed structures.
//
// One-sided (CPU MPI RMA or GPU NVSHMEM): the table and overflow list
// live in shared windows/symmetric heaps. An insert is an atomic
// compare-and-swap on the home slot; on collision the inserter claims
// an overflow slot by atomic fetch-and-increment of the next-free
// pointer and writes the element with a second CAS. There is no
// synchronization until the end of all inserts.
//
// Two-sided: the paper's design broadcasts every insert as a triplet
// (ID, elem, pos) to all other ranks with MPI_Isend; every rank
// receives P-1 messages per round with MPI_Recv(ANY_SOURCE, ANY_TAG)
// and applies only the triplets whose ID matches its own rank. This
// P messages/insert fan-out is what makes two-sided lose at scale
// (5x at 128 ranks) while winning at P=2 (1.1 us vs a 2 us CAS).
package hashtable

import (
	"fmt"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
	"msgroofline/internal/trace"
)

// Layout offsets inside each rank's window/symmetric heap (bytes).
const (
	offNextFree = 0 // uint64: next free overflow slot
	offTable    = 8 // table slots, 8 bytes each
)

// Config describes one hashtable run. Machine and Transport are
// embedded like the other workloads' Configs; Run is the entry point
// for every transport.
type Config struct {
	// Machine is the target platform from the catalog.
	Machine *machine.Config
	// Transport selects the communication stack the one kernel runs
	// on (comm.TwoSided, comm.OneSided, comm.Notified, comm.Shmem).
	Transport comm.Kind
	// Ranks is the number of processes (or GPU PEs).
	Ranks int
	// TotalInserts across all ranks (the paper uses one million);
	// each rank performs TotalInserts/Ranks.
	TotalInserts int
	// Blocks is the GPU-only concurrency: inserts are spread over
	// this many thread-block contexts per PE (default 8).
	Blocks int
	// Shards is the window worker parallelism of the simulated world
	// (0 means 1; results are byte-identical at every value — see
	// comm.Spec.Shards).
	Shards int
	// Chaos is the conformance harness's disorder (comm.Spec.Chaos);
	// the zero value leaves runs byte-identical.
	Chaos runtime.Chaos
}

func (c *Config) fill() error {
	if c.Ranks < 1 {
		return fmt.Errorf("hashtable: ranks = %d", c.Ranks)
	}
	if c.TotalInserts < 1 {
		return fmt.Errorf("hashtable: inserts = %d", c.TotalInserts)
	}
	if c.Blocks == 0 {
		c.Blocks = 8
	}
	if c.Blocks < 1 {
		return fmt.Errorf("hashtable: blocks = %d", c.Blocks)
	}
	return nil
}

// loadFactor sizes the table: capacity = TotalInserts/loadFactor. The
// paper-style 0.5 doubles capacity over inserts.
const loadFactor = 0.5

// geometry derives the distributed table shape.
type geometry struct {
	ranks    int
	perRank  int // inserts per rank
	slots    int // table slots per rank
	overflow int // overflow slots per rank
	capacity int // total table slots
}

func newGeometry(c *Config) geometry {
	per := (c.TotalInserts + c.Ranks - 1) / c.Ranks
	capacity := int(float64(per*c.Ranks) / loadFactor)
	slots := (capacity + c.Ranks - 1) / c.Ranks
	return geometry{
		ranks:    c.Ranks,
		perRank:  per,
		slots:    slots,
		overflow: per + 8, // worst case: every insert overflows
		capacity: slots * c.Ranks,
	}
}

// heapBytes is the per-rank window size.
func (g geometry) heapBytes() int {
	return 8 + 8*g.slots + 8*g.overflow
}

func (g geometry) offOverflow() int { return offTable + 8*g.slots }

// home maps a key to (rank, slot).
func (g geometry) home(key uint64) (rank, slot int) {
	h := int(mix(key) % uint64(g.capacity))
	return h / g.slots, h % g.slots
}

// Key generation: splitmix64 over a global insert index gives unique
// nonzero keys.
func keyFor(globalIdx int) uint64 {
	k := splitmix64(uint64(globalIdx) + 0x9E3779B97F4A7C15)
	if k == 0 {
		k = 0x2545F4914F6CDD1D
	}
	return k
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func mix(x uint64) uint64 { return splitmix64(x ^ 0xD1B54A32D192ED03) }

// Result summarizes one run.
type Result struct {
	// Elapsed is the total simulated insert phase time.
	Elapsed sim.Time
	// GUPS is giga-updates per second (total inserts / elapsed / 1e9).
	GUPS float64
	// UpdatesPerSec is total inserts / elapsed.
	UpdatesPerSec float64
	// PerInsert is the mean time per insert per rank.
	PerInsert sim.Time
	// Comm summarizes messages (two-sided) — empty for one-sided,
	// whose traffic is atomics counted in Atomics.
	Comm trace.Summary
	// Atomics is the total remote atomic count (one-sided/GPU).
	Atomics int64
	// Collisions is how many inserts overflowed.
	Collisions int64
	// Ranks is the number of processes used.
	Ranks int
	// EventDigest is the engine's event-order fingerprint
	// (sim.Engine.Digest) captured after the run; the shard-determinism
	// suite compares it across shard counts.
	EventDigest uint64
}

func finishResult(cfg *Config, elapsed sim.Time, comm trace.Summary, atomics, collisions int64) *Result {
	g := newGeometry(cfg)
	total := g.perRank * g.ranks
	r := &Result{
		Elapsed:    elapsed,
		Comm:       comm,
		Atomics:    atomics,
		Collisions: collisions,
		Ranks:      cfg.Ranks,
	}
	if elapsed > 0 {
		r.UpdatesPerSec = float64(total) / elapsed.Seconds()
		r.GUPS = r.UpdatesPerSec / 1e9
		r.PerInsert = sim.Time(int64(elapsed) / int64(g.perRank))
	}
	return r
}

// shard is one rank's local view used for verification scans.
type shard struct {
	table    []uint64
	overflow []uint64
	nextFree uint64
}

// verifyShards checks that every generated key appears exactly once
// across all shards and nothing else does.
func verifyShards(g geometry, shards []shard) error {
	want := make(map[uint64]bool, g.perRank*g.ranks)
	for i := 0; i < g.perRank*g.ranks; i++ {
		k := keyFor(i)
		if want[k] {
			return fmt.Errorf("hashtable: duplicate generated key %#x", k)
		}
		want[k] = true
	}
	seen := make(map[uint64]bool, len(want))
	for r, s := range shards {
		for _, k := range s.table {
			if k == 0 {
				continue
			}
			if !want[k] {
				return fmt.Errorf("hashtable: rank %d table holds alien key %#x", r, k)
			}
			if seen[k] {
				return fmt.Errorf("hashtable: key %#x stored twice", k)
			}
			seen[k] = true
		}
		for i := uint64(0); i < s.nextFree && int(i) < len(s.overflow); i++ {
			k := s.overflow[i]
			if k == 0 {
				return fmt.Errorf("hashtable: rank %d overflow slot %d empty but claimed", r, i)
			}
			if !want[k] {
				return fmt.Errorf("hashtable: rank %d overflow holds alien key %#x", r, k)
			}
			if seen[k] {
				return fmt.Errorf("hashtable: key %#x stored twice", k)
			}
			seen[k] = true
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("hashtable: stored %d of %d keys", len(seen), len(want))
	}
	return nil
}
