package netsim

import "msgroofline/internal/sim"

// Routing selects the network's route-choice policy.
type Routing int

const (
	// RouteMinimal always takes the shortest (fewest-hop) path — the
	// BFS route PathTo resolves. This is the historical behaviour and
	// the default.
	RouteMinimal Routing = iota
	// RouteAdaptive chooses per message between the minimal path and
	// Valiant-style non-minimal detours through registered
	// intermediate nodes, picking the candidate with the lowest
	// congestion-aware cost estimate at injection time (UGAL-lite).
	// The minimal path wins ties, so an idle fabric routes exactly as
	// RouteMinimal does.
	RouteAdaptive
)

// String names the policy as used in figures.
func (r Routing) String() string {
	if r == RouteAdaptive {
		return "adaptive"
	}
	return "minimal"
}

// SetRouting selects the route-choice policy. Call during topology
// construction, before any route resolves.
func (n *Network) SetRouting(r Routing) {
	n.routing = r
}

// AddDetour registers a candidate intermediate node for non-minimal
// (Valiant-style) routes. Topology generators register one detour per
// dragonfly group (a router) so adaptive routes can bounce traffic
// through a lightly-loaded third group. Detours are consulted in
// registration order, which keeps alternative-route construction
// deterministic.
func (n *Network) AddDetour(node string) {
	n.detours = append(n.detours, node)
}

// maxAltsPerRoute caps the non-minimal candidates a route carries;
// evaluating every registered detour per message would make the
// per-send cost scale with the topology, not the path.
const maxAltsPerRoute = 4

// Route is a resolved routing decision between two nodes: the minimal
// path plus (under RouteAdaptive) a bounded set of precomputed
// non-minimal alternatives. Like Path, a Route is shared and
// read-only; per-message state lives entirely in the links.
type Route struct {
	net  *Network
	min  *Path
	alts []detour
}

// detour is a Valiant-style non-minimal alternative kept as its two
// cached minimal legs, src -> via and via -> dst. Every route through
// via shares the legs instead of holding a concatenated copy.
type detour struct{ a, b *Path }

// RouteTo resolves (and caches) the Route from src to dst under the
// network's routing policy. Under RouteMinimal (or with no registered
// detours) the Route degenerates to the minimal Path and behaves
// byte-for-byte identically to it. Safe to call concurrently: the
// route is composed from canonical cached paths without holding any
// lock (path resolution synchronizes per path-cache shard on its own),
// then installed in its route shard under a double-check, so parallel
// workers resolving distinct pairs never serialize on a shared mutex.
func (n *Network) RouteTo(src, dst string) (*Route, error) {
	si, di, err := n.pair(src, dst)
	if err != nil {
		return nil, err
	}
	return n.RouteAt(si, di)
}

// RouteAt is RouteTo by node index: si and di must be indices
// NodeIndex returned for registered nodes. It returns the same
// canonical *Route as RouteTo from the same node-pair cache, and errors
// only when the pair is disconnected.
func (n *Network) RouteAt(si, di int32) (*Route, error) {
	key := pairKey(si, di)
	sh := n.shard(key)
	sh.mu.RLock()
	r, ok := sh.routes[key]
	sh.mu.RUnlock()
	if ok {
		return r, nil
	}
	min, err := n.pathTo(si, di)
	if err != nil {
		return nil, err
	}
	r = &Route{net: n, min: min}
	if n.routing == RouteAdaptive && si != di {
		r.alts = n.buildAlts(si, di, min)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q, ok := sh.routes[key]; ok {
		return q, nil // lost a resolve race; the winner is canonical
	}
	sh.routes[key] = r
	return r, nil
}

// buildAlts picks the Valiant-style two-leg detours src -> via -> dst
// for registered detour nodes, keeping at most maxAltsPerRoute of the
// shortest (ties broken by registration order, so the set is
// deterministic). Detours that coincide with an endpoint, are
// unreachable, or degenerate to the minimal hop count are skipped —
// a "detour" no longer than the minimal path is the minimal path's
// job. Candidates are ranked by hop counts read off the BFS trees, and
// only the kept ones resolve their legs through the sharded path
// cache, so building alternatives takes no lock of its own.
func (n *Network) buildAlts(si, di int32, min *Path) []detour {
	type cand struct {
		via  int32
		hops int
	}
	// keep[:k] holds the shortest candidates so far, in (hops,
	// registration) order: a newcomer goes after every kept candidate
	// no longer than it, so equal hop counts keep registration order.
	var keep [maxAltsPerRoute]cand
	k := 0
	for _, name := range n.detours {
		v, ok := n.nodeIndex[name]
		via := int32(v)
		if !ok || via == si || via == di {
			continue
		}
		_, _, a := n.span(si, via)
		_, _, b := n.span(via, di)
		hops := a + b
		if a < 0 || b < 0 || hops <= min.hops {
			continue
		}
		i := k
		for i > 0 && keep[i-1].hops > hops {
			i--
		}
		if i == maxAltsPerRoute {
			continue
		}
		if k < maxAltsPerRoute {
			k++
		}
		copy(keep[i+1:k], keep[i:k-1])
		keep[i] = cand{via: via, hops: hops}
	}
	alts := make([]detour, k)
	for i, c := range keep[:k] {
		// Both legs are reachable (their hop counts are), so pathTo
		// cannot fail.
		alts[i].a, _ = n.pathTo(si, c.via)
		alts[i].b, _ = n.pathTo(c.via, di)
	}
	return alts
}

// Min returns the minimal path of the route.
func (r *Route) Min() *Path { return r.min }

// Alts returns the non-minimal alternatives as whole paths (empty
// under RouteMinimal). Each call concatenates the detour legs afresh;
// transfers use the shared legs directly.
func (r *Route) Alts() []*Path {
	out := make([]*Path, len(r.alts))
	for i, d := range r.alts {
		p := &Path{net: r.net, groups: make([]*channelGroup, 0, d.a.hops+d.b.hops)}
		p.groups = append(append(p.groups, d.a.groups...), d.b.groups...)
		p.metrics()
		out[i] = p
	}
	return out
}

// Hops, BaseLatency, PeakBandwidth, AggregateBandwidth and Channels
// describe the minimal path: latency-sensitive queries (lookahead,
// model fitting, atomics) always see minimal-route metrics, because
// detours are taken only under congestion.
func (r *Route) Hops() int                   { return r.min.Hops() }
func (r *Route) BaseLatency() sim.Time       { return r.min.BaseLatency() }
func (r *Route) PeakBandwidth() float64      { return r.min.PeakBandwidth() }
func (r *Route) AggregateBandwidth() float64 { return r.min.AggregateBandwidth() }
func (r *Route) Channels() int               { return r.min.Channels() }

// cost estimates the congestion-aware delivery cost of sending a
// message along p at time at on channel ch: propagation plus per-hop
// store-and-forward serialization plus the queueing delay of each
// hop's chosen link (how far past `at` the link is already booked).
// It reads link state without mutating it.
func (p *Path) cost(at sim.Time, bytes int64, ch int) sim.Time {
	cost := p.baseLat
	for _, g := range p.groups {
		l := g.links[((ch%len(g.links))+len(g.links))%len(g.links)]
		cost += sim.TransferTime(bytes, l.bw)
		if l.freeAt > at {
			cost += l.freeAt - at
		}
	}
	return cost
}

// cost is the cost of the concatenated path: both legs' propagation
// plus every hop's serialization and queueing, all priced at `at`.
func (d detour) cost(at sim.Time, bytes int64, ch int) sim.Time {
	return d.a.cost(at, bytes, ch) + d.b.cost(at, bytes, ch)
}

// transfer sends along leg a, then leg b from a's delivery time: the
// same link reservations, in the same order, as the concatenated path,
// and one fault draw sequence over both legs, as for one path.
func (d detour) transfer(at sim.Time, bytes int64, ch int) sim.Time {
	once := func(t sim.Time) sim.Time {
		return d.b.transferOnce(d.a.transferOnce(t, bytes, ch), bytes, ch)
	}
	t := once(at)
	if f := d.a.net.faults; f != nil {
		t = f.apply(t, once)
	}
	return t
}

// Transfer delivers a message along the route: under RouteMinimal (or
// when no alternatives exist) it is exactly the minimal Path's
// Transfer; under RouteAdaptive it first estimates the
// congestion-aware cost of the minimal path and each alternative and
// takes the cheapest, with the minimal path winning ties. The choice
// reads link reservation state, so calls must happen under the same
// deterministic orderings that link mutation requires (owning engine
// or window barrier) — which makes the pick sequence, and therefore
// simulated output, invariant under worker counts.
func (r *Route) Transfer(at sim.Time, bytes int64, ch int) sim.Time {
	if len(r.alts) == 0 {
		return r.min.Transfer(at, bytes, ch)
	}
	best := -1
	bestCost := r.min.cost(at, bytes, ch)
	for i, d := range r.alts {
		if c := d.cost(at, bytes, ch); c < bestCost {
			best, bestCost = i, c
		}
	}
	if best < 0 {
		r.net.minPicks++
		return r.min.Transfer(at, bytes, ch)
	}
	r.net.altPicks++
	return r.alts[best].transfer(at, bytes, ch)
}

// TransferPacket routes a fixed-occupancy packet along the minimal
// path. Atomic transactions are latency-bound request/response pairs;
// bouncing them through detours would only stretch the round trip, so
// adaptive routing applies to bulk transfers, not packets.
func (r *Route) TransferPacket(at, occupancy sim.Time, ch int) sim.Time {
	return r.min.TransferPacket(at, occupancy, ch)
}

// RoutingStats reports how many adaptive transfers took the minimal
// path vs a non-minimal detour. Both are 0 under RouteMinimal (the
// policy never evaluates a choice) and after Reset.
func (n *Network) RoutingStats() (minimal, nonMinimal int64) {
	return n.minPicks, n.altPicks
}
