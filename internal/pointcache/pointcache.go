// Package pointcache is a content-addressed, two-tier memoization
// cache for the deterministic simulation kernels behind the sweep
// figures. Every cached value is the simulated elapsed time of one
// bench kernel run — a sweep point, a CAS latency, or a Fig-10 split
// run — and the key is a cryptographic hash of everything that
// determines that value: the fully-resolved machine.Config parameter
// set (see machine.Config.AppendFingerprint), the kernel kind, the
// transport, the rank count, the per-point coordinates, and a schema
// salt that is bumped whenever simulation semantics change outside the
// fingerprinted parameters. A hit is therefore provably the *same*
// simulation — same code version, same calibration, same coordinates —
// and any parameter or schema change misses cleanly instead of serving
// stale timings.
//
// Tiers: an in-memory map always fronts the cache; ModeDisk adds a
// persistent directory of one JSON entry per key (written atomically
// via rename), so repeated suite runs — local iteration and CI —
// simulate only the diff. Disk entries are self-checking: a parse
// failure, schema mismatch, or key mismatch counts as a miss and the
// caller re-simulates, so a corrupted cache can cost time but never
// correctness.
//
// All methods are safe for concurrent use and safe on a nil *Cache
// (every operation is a no-op miss), so call sites need no guards.
package pointcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// SchemaSalt versions the simulation semantics that the machine
// fingerprint cannot capture: the engine's timing rules, the transport
// protocols in internal/mpi, internal/shmem and internal/runtime, and
// the fabric topology builders. Bump it in any PR that deliberately
// changes simulated output (the same PRs that regenerate
// results/experiments-quick.txt); every existing cache entry then
// misses and is re-simulated under the new semantics. See DESIGN.md
// §10 for the policy.
const SchemaSalt = "msgroof-pointcache/v1"

// Kind names the simulation kernel family a key belongs to, so points
// of different kernels can never collide even at equal coordinates.
type Kind string

const (
	// KindSweep is one bench.measure sweep point (n messages of B bytes).
	KindSweep Kind = "sweep"
	// KindCAS is one averaged compare-and-swap latency measurement.
	KindCAS Kind = "cas"
	// KindSplit is one Fig-10 split run (volume sent in `parts` parts).
	KindSplit Kind = "split"
	// KindTrigger is one averaged stream-trigger delivery latency
	// measurement (stream-triggered transport micro-number).
	KindTrigger Kind = "trigger"
	// KindChan is one memory-channel open-handshake cost measurement
	// (cold-minus-warm single-message send).
	KindChan Kind = "chanopen"
)

// Key is the content address of one simulated point.
type Key [sha256.Size]byte

// String returns the hex form used for disk file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf derives the content address of one kernel run. transport is
// the bench-level protocol name (bench.Transport.String(), which
// distinguishes the strict one-sided discipline from the windowed
// one); a and b are the kernel coordinates: (n, bytes) for sweeps,
// (dst, reps) for CAS, (parts, volume) for split runs.
func KeyOf(cfg *machine.Config, kind Kind, transport string, ranks int, a int, b int64) Key {
	buf := make([]byte, 0, 512)
	buf = append(buf, SchemaSalt...)
	buf = append(buf, 0)
	buf = append(buf, kind...)
	buf = append(buf, 0)
	buf = append(buf, transport...)
	buf = append(buf, 0)
	buf = appendCoord(buf, int64(ranks))
	buf = appendCoord(buf, int64(a))
	buf = appendCoord(buf, b)
	buf = cfg.AppendFingerprint(buf)
	return sha256.Sum256(buf)
}

// appendCoord writes a fixed-width big-endian int64, keeping the
// coordinate block self-delimiting ahead of the fingerprint.
func appendCoord(buf []byte, v int64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Mode selects the cache tiers.
type Mode int

const (
	// Off disables the cache entirely; every lookup misses.
	Off Mode = iota
	// Mem caches in memory only — shared within one process run.
	Mem
	// Disk layers a persistent per-key entry directory under the
	// in-memory tier.
	Disk
)

// ParseMode maps the CLI flag values off|mem|disk to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "mem":
		return Mem, nil
	case "disk":
		return Disk, nil
	}
	return Off, fmt.Errorf("pointcache: unknown cache mode %q (want off, mem or disk)", s)
}

// Tier reports which tier served a hit.
type Tier int

const (
	// TierNone marks a miss.
	TierNone Tier = iota
	// TierMem marks an in-memory hit.
	TierMem
	// TierDisk marks a hit read (and promoted) from the entry directory.
	TierDisk
)

// Stats are cumulative cache counters. The Cache's own snapshot
// aggregates across all users of the process; bench.Sweep additionally
// fills a per-sweep Stats into Result.Sched.Cache.
type Stats struct {
	// Lookups counts Get calls that reached an enabled cache.
	Lookups int64
	// Hits = MemHits + DiskHits.
	Hits     int64
	MemHits  int64
	DiskHits int64
	// Misses counts lookups that found no (valid) entry.
	Misses int64
	// Stores counts Put calls that inserted an entry.
	Stores int64
	// BadEntries counts disk entries rejected as corrupt (unparseable,
	// wrong schema, or key mismatch); each also counts as a miss.
	BadEntries int64
	// BytesSaved sums the simulated payload volume (messages x bytes)
	// of the simulations that hits made unnecessary.
	BytesSaved int64
}

// HitRate is Hits/Lookups in [0,1] (0 when nothing was looked up).
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

func (s Stats) String() string {
	return fmt.Sprintf("%d lookups, %d hits (%d mem, %d disk), %d misses, hit rate %.1f%%, %d stores, %d bad entries, %.3f simulated GB saved",
		s.Lookups, s.Hits, s.MemHits, s.DiskHits, s.Misses, 100*s.HitRate(), s.Stores, s.BadEntries, float64(s.BytesSaved)/1e9)
}

// Cache is the two-tier store. The zero value and the nil pointer are
// both valid, disabled caches.
type Cache struct {
	mode Mode
	dir  string

	mu  sync.RWMutex
	mem map[Key]sim.Time

	lookups, memHits, diskHits, misses, stores, bad, bytesSaved atomic.Int64
}

// New builds a cache. Mode Disk requires dir, which is created if
// missing; Off returns a nil cache (valid everywhere).
func New(mode Mode, dir string) (*Cache, error) {
	switch mode {
	case Off:
		return nil, nil
	case Mem:
		return &Cache{mode: Mem, mem: map[Key]sim.Time{}}, nil
	case Disk:
		if dir == "" {
			return nil, fmt.Errorf("pointcache: disk mode needs a directory")
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("pointcache: %w", err)
		}
		return &Cache{mode: Disk, dir: dir, mem: map[Key]sim.Time{}}, nil
	}
	return nil, fmt.Errorf("pointcache: unknown mode %d", int(mode))
}

// Enabled reports whether lookups can ever hit.
func (c *Cache) Enabled() bool { return c != nil && c.mode != Off }

// entry is the on-disk JSON form. Key and Schema make every entry
// self-checking: an entry that does not re-state its own address and
// schema is rejected as corrupt.
type entry struct {
	Schema  string `json:"schema"`
	Key     string `json:"key"`
	Elapsed int64  `json:"elapsed_ps"`
}

const entrySchema = "pointcache-entry/v1"

// Get looks up a key and returns the memoized simulated elapsed time.
// A disk hit is promoted to the memory tier.
func (c *Cache) Get(k Key) (sim.Time, Tier, bool) {
	if !c.Enabled() {
		return 0, TierNone, false
	}
	c.lookups.Add(1)
	c.mu.RLock()
	el, ok := c.mem[k]
	c.mu.RUnlock()
	if ok {
		c.memHits.Add(1)
		return el, TierMem, true
	}
	if c.mode == Disk {
		if el, ok := c.readDisk(k); ok {
			c.diskHits.Add(1)
			c.mu.Lock()
			c.mem[k] = el
			c.mu.Unlock()
			return el, TierDisk, true
		}
	}
	c.misses.Add(1)
	return 0, TierNone, false
}

// Put memoizes the simulated elapsed time of one kernel run.
func (c *Cache) Put(k Key, elapsed sim.Time) {
	if !c.Enabled() {
		return
	}
	c.stores.Add(1)
	c.mu.Lock()
	c.mem[k] = elapsed
	c.mu.Unlock()
	if c.mode == Disk {
		c.writeDisk(k, elapsed)
	}
}

// AddBytesSaved accounts the simulated payload volume a hit skipped.
func (c *Cache) AddBytesSaved(v int64) {
	if c.Enabled() {
		c.bytesSaved.Add(v)
	}
}

// Stats snapshots the cumulative counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Lookups:    c.lookups.Load(),
		MemHits:    c.memHits.Load(),
		DiskHits:   c.diskHits.Load(),
		Misses:     c.misses.Load(),
		Stores:     c.stores.Load(),
		BadEntries: c.bad.Load(),
		BytesSaved: c.bytesSaved.Load(),
	}
	s.Hits = s.MemHits + s.DiskHits
	return s
}

// path shards entries by the first key byte to keep directories small.
func (c *Cache) path(k Key) string {
	h := k.String()
	return filepath.Join(c.dir, h[:2], h+".json")
}

// readDisk loads and validates one entry; any inconsistency — IO
// error aside — marks the entry corrupt and reports a miss, so the
// caller falls back to simulating. Bad bytes are never served.
func (c *Cache) readDisk(k Key) (sim.Time, bool) {
	data, err := os.ReadFile(c.path(k))
	if err != nil {
		return 0, false
	}
	var e entry
	if json.Unmarshal(data, &e) != nil || e.Schema != entrySchema || e.Key != k.String() {
		c.bad.Add(1)
		return 0, false
	}
	return sim.Time(e.Elapsed), true
}

// writeDisk persists one entry atomically (temp file + rename), so a
// concurrent reader sees either no entry or a complete one. Write
// failures are silent: the disk tier is an accelerator, never a
// correctness dependency.
func (c *Cache) writeDisk(k Key, elapsed sim.Time) {
	p := c.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	data, err := json.Marshal(entry{Schema: entrySchema, Key: k.String(), Elapsed: int64(elapsed)})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+k.String()+".tmp*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, p); err != nil {
		os.Remove(name)
	}
}
