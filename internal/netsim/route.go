package netsim

import (
	"fmt"

	"msgroofline/internal/sim"
)

// Routing selects the network's route-choice policy.
type Routing int

const (
	// RouteMinimal always takes the shortest (fewest-hop) path — the
	// BFS route Route.Min returns. This is the historical behaviour
	// and the default.
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
// deterministic. A leaf (a node of degree 1) is never taken as a
// detour.
func (n *Network) AddDetour(node string) {
	n.detours = append(n.detours, node)
}

// maxAltsPerRoute caps the non-minimal candidates a route carries;
// evaluating every registered detour per message would make the
// per-send cost scale with the topology, not the path.
const maxAltsPerRoute = 4

// Route is a resolved routing decision between two nodes and the only
// way to query or send along one (RouteTo by name, RouteAt by index).
// It is composed on each lookup without allocation: the injection hop
// out of a leaf source, the core route between the two attachments,
// and the ejection hop into a leaf destination. The shared, read-only core route holds
// the minimal path plus (under RouteAdaptive) a bounded set of
// non-minimal alternatives; per-message state lives in the links.
type Route struct {
	inj, ej *channelGroup // nil when the node attaches at itself
	c       *coreRoute
}

// coreRoute is the cached route between two attachments.
type coreRoute struct {
	min  *Path
	alts []detour
}

// detour is a Valiant-style non-minimal alternative kept as its two
// cached minimal legs, src -> via and via -> dst. Every route through
// via shares the legs instead of holding a concatenated copy.
type detour struct{ a, b *Path }

// RouteTo resolves the Route from src to dst under the network's
// routing policy. Under RouteMinimal (or with no registered detours)
// the Route degenerates to the minimal path and behaves byte-for-byte
// identically to it. Safe to call concurrently (see core).
func (n *Network) RouteTo(src, dst string) (Route, error) {
	si, di, err := n.pair(src, dst)
	if err != nil {
		return Route{}, err
	}
	return n.RouteAt(si, di)
}

// RouteAt is RouteTo by node index: si and di must be indices
// NodeIndex returned for registered nodes. It errors only when the pair
// is disconnected. A node's route to itself is empty and has no
// detours; two leaves under one router compose over that router's
// core route to itself, which does.
func (n *Network) RouteAt(si, di int32) (Route, error) {
	if si == di {
		return Route{c: &n.self}, nil
	}
	var r Route
	s, d := si, di
	if out := n.adjx[si]; len(out) == 1 {
		s, r.inj = out[0].to, out[0].g
	}
	if in := n.adjx[di]; len(in) == 1 && di != s {
		// A leaf has one group, so its reverse is the only edge in.
		d, r.ej = in[0].to, in[0].g.back
	}
	if r.c = n.core(s, d); r.c == nil {
		return Route{}, fmt.Errorf("netsim: no route from %q to %q", n.nodes[si], n.nodes[di])
	}
	return r, nil
}

// core resolves (and caches) the core route between two attachments,
// or returns nil when d is unreachable from s. The route is composed
// from canonical cached paths without holding any lock (path
// resolution synchronizes per path-cache shard on its own), then
// installed in its route shard under a double-check, so parallel
// workers resolving distinct pairs never serialize on a shared mutex.
func (n *Network) core(s, d int32) *coreRoute {
	key := pairKey(s, d)
	sh := n.shard(key)
	sh.mu.RLock()
	c, ok := sh.routes[key]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	min, ok := n.pathTo(s, d)
	if !ok {
		return nil
	}
	c = &coreRoute{min: min}
	if n.routing == RouteAdaptive {
		c.alts = n.buildAlts(s, d, min)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q, ok := sh.routes[key]; ok {
		return q // lost a resolve race; the winner is canonical
	}
	sh.routes[key] = c
	return c
}

// buildAlts picks the Valiant-style two-leg detours s -> via -> d
// between two attachments, keeping at most maxAltsPerRoute of the
// shortest (ties broken by registration order). Detours that are an
// endpoint or a leaf (a bounce that retraces one link), unreachable,
// or no longer than the minimal path are skipped. The end hops of a
// node pair shift every candidate alike, so the kept set is the
// pair's own. Candidates are ranked by BFS-tree hop counts, and only
// the kept ones resolve their legs through the sharded path cache.
func (n *Network) buildAlts(s, d int32, min *Path) []detour {
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
		if !ok || via == s || via == d || len(n.adjx[via]) == 1 {
			continue
		}
		_, a := n.span(s, via)
		_, b := n.span(via, d)
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
		alts[i].a, _ = n.pathTo(s, c.via)
		alts[i].b, _ = n.pathTo(c.via, d)
	}
	return alts
}

// Min returns the minimal path of the route. Between two nodes that
// attach at themselves it is the cached core path; otherwise it is a
// fresh concatenation of the end hops and the core path.
func (r Route) Min() *Path {
	if r.inj == nil && r.ej == nil {
		return r.c.min
	}
	return r.path(r.c.min.groups)
}

// Alts returns the non-minimal alternatives as whole paths (empty
// under RouteMinimal). Each call concatenates the end hops and detour
// legs afresh; transfers use the shared legs directly.
func (r Route) Alts() []*Path {
	out := make([]*Path, len(r.c.alts))
	for i, d := range r.c.alts {
		out[i] = r.path(d.a.groups, d.b.groups)
	}
	return out
}

// path concatenates the injection hop, the given core hops and the
// ejection hop into a new Path.
func (r Route) path(core ...[]*channelGroup) *Path {
	p := &Path{net: r.c.min.net}
	if r.inj != nil {
		p.groups = append(p.groups, r.inj)
	}
	for _, c := range core {
		p.groups = append(p.groups, c...)
	}
	if r.ej != nil {
		p.groups = append(p.groups, r.ej)
	}
	p.metrics()
	return p
}

// sum is the summary of the minimal path: the core path's, extended by
// the end hops.
func (r Route) sum() summary {
	s := r.c.min.summary
	if r.inj != nil {
		s.add(r.inj)
	}
	if r.ej != nil {
		s.add(r.ej)
	}
	return s
}

// Hops, BaseLatency, PeakBandwidth, AggregateBandwidth and Channels
// describe the minimal path: latency-sensitive queries (lookahead,
// model fitting, atomics) always see minimal-route metrics, because
// detours are taken only under congestion.
func (r Route) Hops() int                   { return r.sum().Hops() }
func (r Route) BaseLatency() sim.Time       { return r.sum().BaseLatency() }
func (r Route) PeakBandwidth() float64      { return r.sum().PeakBandwidth() }
func (r Route) AggregateBandwidth() float64 { return r.sum().AggregateBandwidth() }
func (r Route) Channels() int               { return r.sum().Channels() }

// cost estimates the congestion-aware delivery cost of sending a
// message along p at time at on channel ch: propagation plus per-hop
// store-and-forward serialization plus the queueing delay of each
// hop's chosen link (how far past `at` the link is already booked).
// It reads link state without mutating it.
func (p *Path) cost(at sim.Time, bytes int64, ch int) sim.Time {
	cost := p.baseLat
	for _, g := range p.groups {
		l := g.link(ch)
		cost += sim.TransferTime(bytes, l.bw)
		if l.freeAt > at {
			cost += l.freeAt - at
		}
	}
	return cost
}

// Transfer delivers a message along the route: under RouteMinimal (or
// when no alternatives exist) it is exactly the minimal path's
// transfer; under RouteAdaptive it first estimates the
// congestion-aware cost of the minimal path and each alternative and
// takes the cheapest, with the minimal path winning ties. Every
// candidate shares the end hops, priced at the same `at`, so the choice
// compares core costs only; a detour whose legs' propagation alone
// reaches the best cost cannot win and is not priced. The choice reads
// link reservation state, so calls must happen under the same
// deterministic orderings that link mutation requires (owning engine
// or window barrier) — which makes the pick sequence, and therefore
// simulated output, invariant under worker counts.
func (r Route) Transfer(at sim.Time, bytes int64, ch int) sim.Time {
	c := r.c
	if len(c.alts) == 0 {
		return r.send(at, bytes, ch, -1)
	}
	best := -1
	bestCost := c.min.cost(at, bytes, ch)
	for i, d := range c.alts {
		if d.a.baseLat+d.b.baseLat >= bestCost {
			continue
		}
		// The concatenated path's cost: both legs' propagation plus
		// every hop's serialization and queueing, priced at `at`.
		if cost := d.a.cost(at, bytes, ch) + d.b.cost(at, bytes, ch); cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		c.min.net.minPicks++
	} else {
		c.min.net.altPicks++
	}
	return r.send(at, bytes, ch, best)
}

// TransferMinimal delivers a message along the minimal path, never a
// detour (host-staged legs take it).
func (r Route) TransferMinimal(at sim.Time, bytes int64, ch int) sim.Time {
	return r.send(at, bytes, ch, -1)
}

// send reserves the route's links in order — the injection hop, the
// core path (or both legs of detour best), the ejection hop — with one
// fault draw sequence over the whole route: exactly what a transfer
// along the concatenated path does.
func (r Route) send(at sim.Time, bytes int64, ch, best int) sim.Time {
	once := func(t sim.Time) sim.Time {
		if r.inj != nil {
			_, t = r.inj.link(ch).Reserve(t, bytes)
		}
		if best < 0 {
			t = r.c.min.transferOnce(t, bytes, ch)
		} else {
			d := r.c.alts[best]
			t = d.b.transferOnce(d.a.transferOnce(t, bytes, ch), bytes, ch)
		}
		if r.ej != nil {
			_, t = r.ej.link(ch).Reserve(t, bytes)
		}
		return t
	}
	return r.c.min.net.faults.apply(once(at), once)
}

// TransferPacket routes a fixed-occupancy packet along the minimal
// path: each hop is held for `occupancy` against later packets while
// the packet itself cuts through at propagation latency. Atomic
// transactions are latency-bound request/response pairs; bouncing them
// through detours would only stretch the round trip, so adaptive
// routing applies to bulk transfers, not packets. Installed fault
// injection applies to packets exactly as to messages.
func (r Route) TransferPacket(at, occupancy sim.Time, ch int) sim.Time {
	once := func(t sim.Time) sim.Time {
		if r.inj != nil {
			_, t = r.inj.link(ch).ReservePacket(t, occupancy)
		}
		t = r.c.min.packetOnce(t, occupancy, ch)
		if r.ej != nil {
			_, t = r.ej.link(ch).ReservePacket(t, occupancy)
		}
		return t
	}
	return r.c.min.net.faults.apply(once(at), once)
}

// RoutingStats reports how many adaptive transfers took the minimal
// path vs a non-minimal detour. Both are 0 under RouteMinimal (the
// policy never evaluates a choice) and after Reset.
func (n *Network) RoutingStats() (minimal, nonMinimal int64) {
	return n.minPicks, n.altPicks
}
