// Package pointcache is an inert stand-in for a deleted sweep-point
// cache. Nothing is memoized: every figure simulates its own points.
//
// Deprecated: the package exists only because benchmark/workloads.go
// still opens a cache and reads its counters, and files under
// benchmark/ change only together with the benchmark's baseline. It
// goes at the next such change.
package pointcache

// Mode is the cache mode the benchmark passes to New.
type Mode int

// The modes New accepts; both give a nil cache.
const (
	Off Mode = iota
	Mem
)

// Cache is never instantiated: New always returns nil.
type Cache struct{}

// New returns a nil cache for any mode.
func New(Mode, string) (*Cache, error) { return nil, nil }

// Stats is always zero.
type Stats struct{ Lookups, Hits, Misses int64 }

// HitRate is always 0.
func (Stats) HitRate() float64 { return 0 }

// Stats returns zero counters, also on the nil cache New returns.
func (*Cache) Stats() Stats { return Stats{} }
