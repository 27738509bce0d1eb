// Package ridgeline is the 2D distributed roofline ("ridgeline") the
// Message Roofline generalizes to at scale: performance as the min of
// three ceilings over the plane of arithmetic intensity (flops per
// DRAM byte) and communication intensity (flops per network byte),
//
//	Perf(ai, ci) = min(PeakFlops, ai*MemBW, ci*NetBW)
//
// all per rank. The binding ceiling classifies a kernel compute-,
// memory-, or network-bound. The network ceiling is where topology
// enters: NetBW is the min of what the transport's LogGP parameters
// sustain at the kernel's message size and the rank's share of the
// fabric's bisection-limiting tier under uniform traffic
// (machine.TopoMetrics.UniformGBsPerRank) — so the same kernel can be
// compute-bound on a full-bisection fat-tree and network-bound on a
// tapered dragonfly at the same rank count.
package ridgeline

import (
	"fmt"

	"msgroofline/internal/core"
	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// Class names the binding ceiling of a kernel on a surface.
type Class int

const (
	// NetworkBound kernels are limited by ci*NetBW.
	NetworkBound Class = iota
	// MemoryBound kernels are limited by ai*MemBW.
	MemoryBound
	// ComputeBound kernels are limited by PeakFlops.
	ComputeBound
)

// String names the class as used in figures.
func (c Class) String() string {
	switch c {
	case NetworkBound:
		return "network"
	case MemoryBound:
		return "memory"
	default:
		return "compute"
	}
}

// Surface is one machine/transport/scale point of the ridgeline: the
// three per-rank ceilings.
type Surface struct {
	// Name labels the surface in figures (e.g. "dragonfly one-sided").
	Name string
	// PeakFlops is the per-rank compute ceiling (flop/s).
	PeakFlops float64
	// MemBW is the per-rank DRAM bandwidth (bytes/s).
	MemBW float64
	// NetBW is the per-rank sustainable network bandwidth (bytes/s)
	// at the operating message size, already derated by the topology
	// share (see NetBWPerRank).
	NetBW float64
}

// Validate rejects non-positive ceilings.
func (s Surface) Validate() error {
	if s.PeakFlops <= 0 || s.MemBW <= 0 || s.NetBW <= 0 {
		return fmt.Errorf("ridgeline: surface %q ceilings must be positive: %+v", s.Name, s)
	}
	return nil
}

// Classify names the binding ceiling at (ai, ci).
func (s Surface) Classify(ai, ci float64) Class {
	_, c := s.Bound(ai, ci)
	return c
}

// Bound evaluates the ridgeline and names the binding ceiling. Ties
// resolve network before memory before compute: when two ceilings
// coincide, the one that scaling (more ranks, weaker network share)
// degrades first is reported.
func (s Surface) Bound(ai, ci float64) (float64, Class) {
	perf := ci * s.NetBW
	class := NetworkBound
	if m := ai * s.MemBW; m < perf {
		perf, class = m, MemoryBound
	}
	if s.PeakFlops < perf {
		perf, class = s.PeakFlops, ComputeBound
	}
	return perf, class
}

// NetworkCrossoverCI is the communication intensity above which the
// network stops binding at arithmetic intensity ai: kernels with
// ci >= the crossover hit the memory or compute ceiling first. This
// is the ridge line of the surface along the ci axis.
func (s Surface) NetworkCrossoverCI(ai float64) float64 {
	rest := ai * s.MemBW
	if s.PeakFlops < rest {
		rest = s.PeakFlops
	}
	return rest / s.NetBW
}

// Kernel is one application point on the intensity plane.
type Kernel struct {
	Name string
	// AI is arithmetic intensity: flops per DRAM byte moved.
	AI float64
	// CI is communication intensity: flops per network byte sent.
	CI float64
	// MsgBytes is the kernel's operating message size, which sets the
	// LogGP-effective bandwidth inside NetBWPerRank.
	MsgBytes int64
}

// NetBWPerRank derives the per-rank network ceiling for a transport
// parameter set on a generated topology: the LogGP rounded (saturated
// steady-state) bandwidth at the operating message size, capped by
// the rank's uniform-traffic share of the topology's limiting tier.
// The parameters come from core.NewParams over the fabric's worst
// propagation latency (TopoMetrics.MaxWireLatencyNs) at the injection
// bandwidth (TopoMetrics.InjectionGBs).
func NetBWPerRank(tp machine.TransportParams, m machine.TopoMetrics, msgBytes int64) float64 {
	p := core.NewParams(tp, sim.FromNanoseconds(m.MaxWireLatencyNs), m.InjectionGBs*1e9)
	return min(p.RoundedBandwidth(msgBytes), m.UniformGBsPerRank*1e9)
}

// SurfaceFor assembles the ridgeline surface of one transport on one
// generated topology at one operating message size. peakFlops and
// memBW are per rank.
func SurfaceFor(name string, tp machine.TransportParams, m machine.TopoMetrics, msgBytes int64, peakFlops, memBW float64) Surface {
	return Surface{
		Name:      name,
		PeakFlops: peakFlops,
		MemBW:     memBW,
		NetBW:     NetBWPerRank(tp, m, msgBytes),
	}
}
