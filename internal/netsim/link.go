// Package netsim models a node-local or multi-node communication
// fabric as a graph of full-duplex links with finite bandwidth and
// fixed propagation latency. Messages reserve each link on their path
// FIFO (store-and-forward), which yields contention and queueing
// behaviour without a packet-level simulation.
//
// The package is time-passive: callers supply the current simulated
// time and receive the delivery time back, so it composes with any
// clock source (in this repository, internal/sim). Optional fault
// injection (Faults) adds seeded latency spikes and drops; a dropped
// message is re-sent after a fixed 1 us timeout, at most 3 times.
package netsim

import (
	"fmt"

	"msgroofline/internal/sim"
)

// Link is one direction of a physical channel: a serialization
// resource with fixed bandwidth and propagation latency. A message
// occupies the link for size/bandwidth, FIFO.
type Link struct {
	name  string
	class string   // topology link class ("" when unclassified)
	bw    float64  // bytes per second
	lat   sim.Time // propagation latency

	freeAt   sim.Time // earliest time the next message may start serializing
	busy     sim.Time // total occupied time (for utilization)
	bytes    int64    // total bytes carried
	messages int64    // total messages carried
}

// NewLink returns a link with the given bandwidth (bytes/s) and
// propagation latency. The name is used in diagnostics and stats.
func NewLink(name string, bandwidth float64, latency sim.Time) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: link %q: bandwidth must be positive, got %v", name, bandwidth))
	}
	if latency < 0 {
		panic(fmt.Sprintf("netsim: link %q: negative latency", name))
	}
	return &Link{name: name, bw: bandwidth, lat: latency}
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Class returns the topology link class this link was declared with
// (e.g. "local", "global", "edge"; "" for unclassified links).
func (l *Link) Class() string { return l.class }

// Bandwidth returns the link bandwidth in bytes per second.
func (l *Link) Bandwidth() float64 { return l.bw }

// Latency returns the link propagation latency.
func (l *Link) Latency() sim.Time { return l.lat }

// Reserve books the link for a message of the given size arriving at
// time at. It returns when serialization starts (>= at; later if the
// link is busy) and when the last byte arrives at the far end
// (start + serialization + propagation).
func (l *Link) Reserve(at sim.Time, bytes int64) (start, arrive sim.Time) {
	ser := sim.TransferTime(bytes, l.bw)
	start = at
	if l.freeAt > start {
		start = l.freeAt
	}
	l.freeAt = start + ser
	l.busy += ser
	l.bytes += bytes
	l.messages++
	return start, start + ser + l.lat
}

// ReservePacket books the link for a fixed-occupancy packet (e.g. a
// coherence/atomic transaction) arriving at time at: the packet holds
// the link for `occupancy` against later traffic, but its own
// delivery is cut-through (start + propagation latency only). This
// models fabrics whose atomic throughput is limited by transaction
// rate rather than byte rate.
func (l *Link) ReservePacket(at, occupancy sim.Time) (start, arrive sim.Time) {
	if occupancy < 0 {
		occupancy = 0
	}
	start = at
	if l.freeAt > start {
		start = l.freeAt
	}
	l.freeAt = start + occupancy
	l.busy += occupancy
	l.messages++
	return start, start + l.lat
}

// Stats reports cumulative counters for the link.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		Name:     l.name,
		Class:    l.class,
		BusyTime: l.busy,
		Bytes:    l.bytes,
		Messages: l.messages,
	}
}

// LinkStats is a snapshot of a link's cumulative counters.
type LinkStats struct {
	Name     string
	Class    string
	BusyTime sim.Time
	Bytes    int64
	Messages int64
}
