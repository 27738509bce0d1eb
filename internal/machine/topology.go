package machine

import (
	"fmt"

	"msgroofline/internal/netsim"
)

// This file is the declarative topology layer: a machine's fabric is
// data (a Topology spec), not a bespoke build function. The five paper
// machines are Explicit specs listing their handful of links verbatim;
// extreme-scale machines come from the parametric Dragonfly and
// FatTree generators (generate.go), which expand to the same link-list
// form. One generic builder turns any spec into a netsim fabric plus
// rank placements, so node groups, lookahead bounds, and the coupled
// window engine all fall out of the spec with no per-machine wiring.
//
// Builder determinism: links are added in spec order, which fixes
// netsim's adjacency insertion order and therefore its BFS tie-breaks
// — two identical specs always produce byte-identical fabrics and
// routes. The Explicit specs below list links in exactly the order the
// retired per-machine build functions added them, which keeps every
// golden output byte-identical across the refactor.

// LinkSpec declares one bidirectional channel group of the fabric.
type LinkSpec struct {
	// A, B are the endpoint node names.
	A, B string
	// GBs is the per-channel bandwidth in GB/s (1e9 bytes/s).
	GBs float64
	// LatencyNs is the propagation latency in nanoseconds.
	LatencyNs float64
	// Channels is the number of parallel links in the group (>= 1).
	Channels int
	// Class tags the link's topology tier for per-class stats
	// ("intra-router", "local", "global", "edge", ...; "" is fine).
	Class string
}

// Placement maps ranks onto fabric nodes.
type Placement struct {
	// Kind selects the strategy: "block" fills Nodes in order with
	// ceil(ranks/len(Nodes)) ranks each (the MPI default; Socket is
	// the node index), "per-rank" places rank r on Nodes[r] with
	// Sockets[r] and Hosts[r] (GPU machines).
	Kind string
	// Nodes lists the placement targets (see Kind).
	Nodes []string
	// Sockets gives per-rank socket indices (per-rank kind only).
	Sockets []int
	// Hosts gives per-rank host-staging nodes (per-rank kind only;
	// empty means no host staging).
	Hosts []string
}

// Placement kinds.
const (
	PlaceBlock   = "block"
	PlacePerRank = "per-rank"
)

// Explicit is a literal topology: the link list and placement are
// written out in full. The paper's single-node machines use it.
type Explicit struct {
	Links []LinkSpec
	Place Placement
	// Detours lists candidate intermediate nodes for non-minimal
	// adaptive routes (usually empty on explicit machines).
	Detours []string
}

// Topology declares how a machine's fabric is built: exactly one of
// Explicit, Dragonfly, or FatTree must be set. Routing selects the
// netsim route-choice policy ("" or "minimal" for shortest-path,
// "adaptive" for congestion-aware UGAL-lite with Valiant detours).
type Topology struct {
	Explicit  *Explicit
	Dragonfly *Dragonfly
	FatTree   *FatTree
	Routing   string
}

// Routing policy names accepted by Topology.Routing.
const (
	RoutingMinimal  = "minimal"
	RoutingAdaptive = "adaptive"
)

// expand checks that exactly one generator is set and that the
// routing policy is known, then lowers the spec to the common
// link-list + placement form.
func (t *Topology) expand() (links []LinkSpec, place Placement, detours []string, err error) {
	switch t.Routing {
	case "", RoutingMinimal, RoutingAdaptive:
	default:
		return nil, Placement{}, nil, fmt.Errorf("machine: unknown routing policy %q", t.Routing)
	}
	set := 0
	for _, ok := range []bool{t.Explicit != nil, t.Dragonfly != nil, t.FatTree != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, Placement{}, nil, fmt.Errorf("machine: topology must set exactly one of Explicit/Dragonfly/FatTree, got %d", set)
	}
	switch {
	case t.Dragonfly != nil:
		return t.Dragonfly.expand()
	case t.FatTree != nil:
		return t.FatTree.expand()
	}
	return t.Explicit.Links, t.Explicit.Place, t.Explicit.Detours, nil
}

func validateExpansion(links []LinkSpec, place Placement) error {
	for i, l := range links {
		if l.A == "" || l.B == "" || l.A == l.B {
			return fmt.Errorf("machine: link %d: bad endpoints %q-%q", i, l.A, l.B)
		}
		if l.GBs <= 0 {
			return fmt.Errorf("machine: link %d (%s-%s): bandwidth must be positive, got %v GB/s", i, l.A, l.B, l.GBs)
		}
		if l.LatencyNs < 0 {
			return fmt.Errorf("machine: link %d (%s-%s): negative latency %v ns", i, l.A, l.B, l.LatencyNs)
		}
		if l.Channels < 1 {
			return fmt.Errorf("machine: link %d (%s-%s): channels must be >= 1, got %d", i, l.A, l.B, l.Channels)
		}
	}
	switch place.Kind {
	case PlaceBlock:
		if len(place.Nodes) == 0 {
			return fmt.Errorf("machine: block placement needs nodes")
		}
	case PlacePerRank:
		if len(place.Nodes) == 0 {
			return fmt.Errorf("machine: per-rank placement needs nodes")
		}
		if len(place.Sockets) != len(place.Nodes) {
			return fmt.Errorf("machine: per-rank placement: %d sockets for %d nodes", len(place.Sockets), len(place.Nodes))
		}
		if len(place.Hosts) != 0 && len(place.Hosts) != len(place.Nodes) {
			return fmt.Errorf("machine: per-rank placement: %d hosts for %d nodes", len(place.Hosts), len(place.Nodes))
		}
	default:
		return fmt.Errorf("machine: unknown placement kind %q", place.Kind)
	}
	return nil
}

// Build validates the spec and materializes the fabric and the
// placements for `ranks` ranks. Every topology reaches netsim through
// here, so netsim's panics on non-positive bandwidth or channel counts
// stay programmer-error guards rather than reachable input crashes.
func (t *Topology) Build(ranks int) (*netsim.Network, []Place, error) {
	links, place, detours, err := t.expand()
	if err != nil {
		return nil, nil, err
	}
	if err := validateExpansion(links, place); err != nil {
		return nil, nil, err
	}
	n := netsim.New()
	for _, l := range links {
		n.AddClassLink(l.A, l.B, l.Class, l.GBs*gb, ns(l.LatencyNs), l.Channels)
	}
	if t.Routing == RoutingAdaptive {
		n.SetRouting(netsim.RouteAdaptive)
	}
	for _, d := range detours {
		n.AddDetour(d)
	}
	places, err := place.place(ranks)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range places {
		if n.NodeIndex(p.Node) < 0 {
			return nil, nil, fmt.Errorf("machine: placement node %q is not in the fabric", p.Node)
		}
		if p.Host != "" && n.NodeIndex(p.Host) < 0 {
			return nil, nil, fmt.Errorf("machine: placement host %q is not in the fabric", p.Host)
		}
	}
	return n, places, nil
}

// Metrics returns the analytic topology metrics of a parametric spec.
// Explicit topologies are single nodes with no fabric-scale metrics,
// so they report an error.
func (t *Topology) Metrics() (TopoMetrics, error) {
	switch {
	case t.Dragonfly != nil:
		return t.Dragonfly.Metrics()
	case t.FatTree != nil:
		return t.FatTree.Metrics()
	default:
		return TopoMetrics{}, fmt.Errorf("machine: explicit topologies carry no analytic metrics")
	}
}

// place realizes the placement for `ranks` ranks.
func (p *Placement) place(ranks int) ([]Place, error) {
	places := make([]Place, ranks)
	switch p.Kind {
	case PlaceBlock:
		per := (ranks + len(p.Nodes) - 1) / len(p.Nodes)
		for r := range places {
			i := r / per
			if i > len(p.Nodes)-1 {
				i = len(p.Nodes) - 1
			}
			places[r] = Place{Node: p.Nodes[i], Socket: i}
		}
	case PlacePerRank:
		if ranks > len(p.Nodes) {
			return nil, fmt.Errorf("machine: %d ranks exceed the %d per-rank placement slots", ranks, len(p.Nodes))
		}
		for r := range places {
			pl := Place{Node: p.Nodes[r], Socket: p.Sockets[r]}
			if len(p.Hosts) > 0 {
				pl.Host = p.Hosts[r]
			}
			places[r] = pl
		}
	default:
		return nil, fmt.Errorf("machine: unknown placement kind %q", p.Kind)
	}
	return places, nil
}
