package netsim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"msgroofline/internal/sim"
)

// channelGroup is the set of parallel links (port groups / lanes)
// carrying traffic from one node to a neighbor. A message picks one
// member by channel index; concurrent messages on distinct channels
// do not contend with each other.
type channelGroup struct {
	to    string
	links []*Link
}

// Network is a directed multigraph of nodes joined by channel groups.
// Routing is static shortest-path (hop count, ties broken by insertion
// order), computed lazily and cached: each (src, dst) node pair
// resolves once to a *Path (and a *Route) carrying the hop list and
// precomputed route metrics, so steady-state sends do a single
// sharded-map probe and no allocation. This node-pair cache is the
// only route cache: callers that send between placed ranks keep the
// ranks' node indices (NodeIndex) and look routes up by index
// (RouteAt), which skips hashing the node names.
//
// The topology itself (nodes, links, adjacency) is immutable once
// construction finishes — generators build the whole fabric before the
// first rank runs — and AddLink during a run has never been supported
// (it already mutated the adjacency without synchronization). That
// contract lets route resolution read the graph without any lock: the
// per-source BFS trees install by CAS, and the path/route caches are
// sharded (cacheShards ways by pair hash) so parallel window workers
// resolving distinct pairs do not serialize on one mutex.
type Network struct {
	nodes     []string
	nodeIndex map[string]int
	adj       map[string][]*channelGroup
	// adjx mirrors adj with dense node indices so BFS runs over int32
	// slices instead of string-keyed maps (the map-based walk dominated
	// first-touch route resolution on 1K-node fabrics). Entry order per
	// node matches adj exactly — BFS tie-breaking is unchanged.
	adjx [][]xgroup
	// trees holds the lazily built BFS predecessor tree of each source
	// node (see tree); AddNode and AddLink drop the whole set.
	trees atomic.Pointer[treeSet]
	// cache holds the lazily-populated path and route caches, sharded
	// by (src, dst) hash. Routes resolve on first use, mostly at the
	// window barrier but also from concurrently executing node-group
	// engines (an MPI Get's request latency), so resolution must be
	// race-free; the resolved values are pure functions of the static
	// topology, so neither lazy population nor the
	// resolve-outside-the-lock build order perturbs simulated timing.
	cache [cacheShards]cacheShard
	// routing selects the route-choice policy (minimal by default);
	// detours lists the candidate intermediate nodes Valiant-style
	// non-minimal routes may bounce through (see route.go).
	routing Routing
	detours []string
	// minPicks / altPicks count adaptive route decisions (see
	// RoutingStats). Mutated only under the deterministic transfer
	// orderings (window barrier / owning engine), like link state.
	minPicks int64
	altPicks int64
	// faults, when non-nil, perturbs transfers (see faults.go).
	faults *faultState
}

// treeSet has one slot per node for the BFS tree rooted there.
type treeSet struct {
	slots []atomic.Pointer[[]int32]
}

// xgroup is one outgoing edge of the index-based adjacency: the dense
// index of the neighbour plus the channel group reaching it.
type xgroup struct {
	to int32
	g  *channelGroup
}

// cacheShards is the path/route cache shard count (power of two). 16
// shards keep parallel window workers from serializing on resolution
// while costing four words of mutex state per shard.
const cacheShards = 16

// cacheShard is one lock-striped slice of the resolution caches,
// keyed by pairKey.
type cacheShard struct {
	mu     sync.RWMutex
	paths  map[uint64]*Path
	routes map[uint64]*Route
}

// pairKey packs a (src, dst) node-index pair into one cache key.
func pairKey(si, di int32) uint64 { return uint64(uint32(si))<<32 | uint64(uint32(di)) }

// shard returns the cache shard of a pair key (a Fibonacci hash; any
// stable mix works — the caches are invisible to simulated state).
func (n *Network) shard(key uint64) *cacheShard {
	return &n.cache[(key*0x9e3779b97f4a7c15)>>32%cacheShards]
}

// New returns an empty network.
func New() *Network {
	n := &Network{
		nodeIndex: make(map[string]int),
		adj:       make(map[string][]*channelGroup),
	}
	for i := range n.cache {
		n.cache[i].paths = make(map[uint64]*Path)
		n.cache[i].routes = make(map[uint64]*Route)
	}
	return n
}

// Path is a resolved route between two nodes: the channel groups along
// the shortest route plus route metrics precomputed at resolution
// time. A Path stays valid until the topology changes (AddLink); hot
// paths cache it to make per-message routing allocation- and
// hash-free.
type Path struct {
	net     *Network
	groups  []*channelGroup
	hops    int
	baseLat sim.Time
	peakBW  float64
	aggBW   float64
	minCh   int
}

// Hops returns the number of hops (0 for a same-node path).
func (p *Path) Hops() int { return p.hops }

// BaseLatency returns the summed propagation latency along the route
// (zero-byte wire time, no contention).
func (p *Path) BaseLatency() sim.Time { return p.baseLat }

// PeakBandwidth returns the single-channel bottleneck bandwidth
// (bytes/s) along the route.
func (p *Path) PeakBandwidth() float64 { return p.peakBW }

// AggregateBandwidth returns the bottleneck of per-hop summed channel
// bandwidth (bytes/s).
func (p *Path) AggregateBandwidth() float64 { return p.aggBW }

// Channels returns the minimum number of parallel channels along the
// route (the usable injection-splitting width).
func (p *Path) Channels() int { return p.minCh }

// Transfer delivers a message of the given size along the path,
// injected at time at on channel ch, using store-and-forward timing
// per hop with FIFO link contention. It returns the delivery time of
// the last byte. When fault injection is installed on the owning
// network, the delivery may additionally suffer a latency spike or
// drop-and-retransmit rounds (see faults.go).
func (p *Path) Transfer(at sim.Time, bytes int64, ch int) sim.Time {
	t := p.transferOnce(at, bytes, ch)
	if p.net != nil && p.net.faults != nil {
		t = p.net.faults.apply(t, func(again sim.Time) sim.Time {
			return p.transferOnce(again, bytes, ch)
		})
	}
	return t
}

// transferOnce is one fault-free transmission attempt along the path.
func (p *Path) transferOnce(at sim.Time, bytes int64, ch int) sim.Time {
	t := at
	for _, g := range p.groups {
		l := g.links[((ch%len(g.links))+len(g.links))%len(g.links)]
		_, t = l.Reserve(t, bytes)
	}
	return t
}

// TransferPacket routes a fixed-occupancy packet (atomic transaction)
// along the path injected at time at on channel ch: each hop is held
// for `occupancy` against later packets while the packet itself cuts
// through at propagation latency. Installed fault injection applies to
// packets exactly as to messages.
func (p *Path) TransferPacket(at, occupancy sim.Time, ch int) sim.Time {
	t := p.packetOnce(at, occupancy, ch)
	if p.net != nil && p.net.faults != nil {
		t = p.net.faults.apply(t, func(again sim.Time) sim.Time {
			return p.packetOnce(again, occupancy, ch)
		})
	}
	return t
}

func (p *Path) packetOnce(at, occupancy sim.Time, ch int) sim.Time {
	t := at
	for _, g := range p.groups {
		l := g.links[((ch%len(g.links))+len(g.links))%len(g.links)]
		_, t = l.ReservePacket(t, occupancy)
	}
	return t
}

// metrics fills in the precomputed route summaries from the hop list.
func (p *Path) metrics() {
	p.hops = len(p.groups)
	p.peakBW = math.Inf(1)
	p.aggBW = math.Inf(1)
	p.minCh = math.MaxInt
	for _, g := range p.groups {
		p.baseLat += g.links[0].Latency()
		if b := g.links[0].Bandwidth(); b < p.peakBW {
			p.peakBW = b
		}
		sum := 0.0
		for _, l := range g.links {
			sum += l.Bandwidth()
		}
		if sum < p.aggBW {
			p.aggBW = sum
		}
		if len(g.links) < p.minCh {
			p.minCh = len(g.links)
		}
	}
	if math.IsInf(p.peakBW, 1) {
		p.peakBW = 0
	}
	if math.IsInf(p.aggBW, 1) {
		p.aggBW = 0
	}
	if p.minCh == math.MaxInt {
		p.minCh = 1
	}
}

// AddNode registers a node name. Adding an existing node is a no-op.
func (n *Network) AddNode(name string) {
	if _, ok := n.nodeIndex[name]; ok {
		return
	}
	n.nodeIndex[name] = len(n.nodes)
	n.nodes = append(n.nodes, name)
	n.adjx = append(n.adjx, nil)
	n.trees.Store(nil)
}

// Nodes returns all node names in insertion order.
func (n *Network) Nodes() []string {
	out := make([]string, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// HasNode reports whether name is a registered node.
func (n *Network) HasNode(name string) bool {
	_, ok := n.nodeIndex[name]
	return ok
}

// NodeIndex returns the dense index of a registered node (its position
// in Nodes), or -1 for an unknown name. RouteAt takes these indices.
func (n *Network) NodeIndex(name string) int32 {
	if i, ok := n.nodeIndex[name]; ok {
		return int32(i)
	}
	return -1
}

// AddLink joins a and b with a bidirectional channel group: `channels`
// parallel full-duplex links, each with the given per-link bandwidth
// (bytes/s) and propagation latency. Both endpoints are registered as
// nodes if needed. Adding a link invalidates cached routes.
func (n *Network) AddLink(a, b string, bandwidth float64, latency sim.Time, channels int) {
	n.AddClassLink(a, b, "", bandwidth, latency, channels)
}

// AddClassLink is AddLink with a topology link class attached to every
// created link (e.g. "local" / "global" on a dragonfly, "edge" /
// "aggregation" / "core" on a fat-tree). Classes feed per-class
// utilization stats (ClassStats) and routing diagnostics; they do not
// affect routing or timing. Channel counts and link parameters are
// programmer inputs here and must be validated upstream (generated
// topology specs validate before building — see machine.Topology).
func (n *Network) AddClassLink(a, b, class string, bandwidth float64, latency sim.Time, channels int) {
	if channels < 1 {
		panic(fmt.Sprintf("netsim: link %s-%s: channels must be >= 1, got %d", a, b, channels))
	}
	n.AddNode(a)
	n.AddNode(b)
	fwd := &channelGroup{to: b}
	rev := &channelGroup{to: a}
	for c := 0; c < channels; c++ {
		fl := NewLink(fmt.Sprintf("%s->%s#%d", a, b, c), bandwidth, latency)
		rl := NewLink(fmt.Sprintf("%s->%s#%d", b, a, c), bandwidth, latency)
		fl.class, rl.class = class, class
		fwd.links = append(fwd.links, fl)
		rev.links = append(rev.links, rl)
	}
	n.adj[a] = append(n.adj[a], fwd)
	n.adj[b] = append(n.adj[b], rev)
	ai, bi := n.nodeIndex[a], n.nodeIndex[b]
	n.adjx[ai] = append(n.adjx[ai], xgroup{to: int32(bi), g: fwd})
	n.adjx[bi] = append(n.adjx[bi], xgroup{to: int32(ai), g: rev})
	n.trees.Store(nil)
	for i := range n.cache {
		sh := &n.cache[i]
		sh.mu.Lock()
		clear(sh.paths)
		clear(sh.routes)
		sh.mu.Unlock()
	}
}

// PathTo resolves (and caches) the shortest (fewest-hop) route from
// src to dst. Unknown nodes and disconnected pairs return errors. The
// returned Path is shared: callers must treat it as read-only, and may
// hold it for the lifetime of the topology to bypass the cache probe
// entirely. Resolution is safe to call concurrently: it reads the
// immutable topology and lock-free BFS trees (see span), and the
// double-checked shard insert guarantees every caller sees the same
// canonical *Path for a pair (racing resolvers build identical values;
// the insert loser adopts the winner's).
func (n *Network) PathTo(src, dst string) (*Path, error) {
	si, di, err := n.pair(src, dst)
	if err != nil {
		return nil, err
	}
	return n.pathTo(si, di)
}

// pair returns the node indices of src and dst.
func (n *Network) pair(src, dst string) (si, di int32, err error) {
	s, ok := n.nodeIndex[src]
	if !ok {
		return 0, 0, fmt.Errorf("netsim: unknown node %q", src)
	}
	d, ok := n.nodeIndex[dst]
	if !ok {
		return 0, 0, fmt.Errorf("netsim: unknown node %q", dst)
	}
	return int32(s), int32(d), nil
}

// pathTo is PathTo by node index. On a cache miss it builds the path
// outside any lock, then installs it in the shard under a
// double-check.
func (n *Network) pathTo(si, di int32) (*Path, error) {
	key := pairKey(si, di)
	sh := n.shard(key)
	sh.mu.RLock()
	p, ok := sh.paths[key]
	sh.mu.RUnlock()
	if ok {
		return p, nil
	}
	p = &Path{net: n}
	if si != di {
		prev, root, hops := n.span(si, di)
		if hops < 0 {
			return nil, fmt.Errorf("netsim: no route from %q to %q", n.nodes[si], n.nodes[di])
		}
		p.groups = make([]*channelGroup, hops)
		for x, i := di, hops-1; x != root; x, i = prev[x], i-1 {
			p.groups[i] = n.edge(prev[x], x)
		}
		if root != si {
			p.groups[0] = n.adjx[si][0].g
		}
	}
	p.metrics()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q, ok := sh.paths[key]; ok {
		return q, nil // lost a resolve race; the winner is canonical
	}
	sh.paths[key] = p
	return p, nil
}

// span locates the shortest route from si to di (si != di) on a BFS
// tree: it returns the tree, the node it is rooted at, and the hop
// count (-1 when di is unreachable). A degree-1 source has one way
// out, so its route is that edge followed by its neighbour's route,
// read off the neighbour's tree; only nodes of degree 2 or more (the
// routers and switches of a generated fabric, not its endpoints) ever
// get a tree of their own. BFS from the leaf marks its neighbour first
// and then scans the neighbour's edges exactly as BFS from the
// neighbour does, so both trees agree on every other node.
func (n *Network) span(si, di int32) (prev []int32, root int32, hops int) {
	root = si
	if out := n.adjx[si]; len(out) == 1 {
		root, hops = out[0].to, 1
	}
	prev = n.tree(root)
	if prev[di] == -1 {
		return prev, root, -1
	}
	for x := di; x != root; x = prev[x] {
		hops++
	}
	return prev, root, hops
}

// tree returns the breadth-first predecessor tree rooted at root:
// prev[x] is the node BFS first reached x from (root for itself, -1
// when x is unreachable). BFS never re-marks a node, so the full walk
// marks every node exactly as a walk stopping at any one destination
// would, and one tree serves every route from root. Trees are built
// on first use and installed by CAS without a lock: racing builders
// compute identical trees and the loser adopts the winner's.
func (n *Network) tree(root int32) []int32 {
	set := n.trees.Load()
	if set == nil {
		n.trees.CompareAndSwap(nil, &treeSet{slots: make([]atomic.Pointer[[]int32], len(n.nodes))})
		set = n.trees.Load()
	}
	slot := &set.slots[root]
	if t := slot.Load(); t != nil {
		return *t
	}
	prev := make([]int32, len(n.nodes))
	for i := range prev {
		prev[i] = -1
	}
	prev[root] = root
	queue := append(make([]int32, 0, len(n.nodes)), root)
	for qi := 0; qi < len(queue); qi++ {
		for _, x := range n.adjx[queue[qi]] {
			if prev[x.to] == -1 {
				prev[x.to] = queue[qi]
				queue = append(queue, x.to)
			}
		}
	}
	slot.CompareAndSwap(nil, &prev)
	return *slot.Load()
}

// edge returns the channel group BFS marked `to` with when it scanned
// from's edges: the first one leading to `to`, which is the one a
// parallel link added later never displaces.
func (n *Network) edge(from, to int32) *channelGroup {
	for _, x := range n.adjx[from] {
		if x.to == to {
			return x.g
		}
	}
	panic("netsim: tree hop without an edge")
}

// Transfer delivers a message of the given size from src to dst,
// injected at time at, using channel ch (messages on distinct channel
// indices ride parallel links where the topology provides them). It
// returns the delivery time of the last byte, using store-and-forward
// timing per hop with FIFO link contention.
func (n *Network) Transfer(at sim.Time, src, dst string, bytes int64, ch int) (sim.Time, error) {
	p, err := n.PathTo(src, dst)
	if err != nil {
		return 0, err
	}
	return p.Transfer(at, bytes, ch), nil
}

// TransferPacket routes a fixed-occupancy packet (atomic transaction)
// from src to dst injected at time at on channel ch: each hop is held
// for `occupancy` against later packets while the packet itself cuts
// through at propagation latency.
func (n *Network) TransferPacket(at sim.Time, src, dst string, occupancy sim.Time, ch int) (sim.Time, error) {
	p, err := n.PathTo(src, dst)
	if err != nil {
		return 0, err
	}
	return p.TransferPacket(at, occupancy, ch), nil
}

// Hops returns the number of hops between src and dst (0 for the same
// node), or -1 if unreachable.
func (n *Network) Hops(src, dst string) int {
	p, err := n.PathTo(src, dst)
	if err != nil {
		return -1
	}
	return p.Hops()
}

// Channels returns the minimum number of parallel channels along the
// route (the usable injection-splitting width), or 0 if unreachable.
func (n *Network) Channels(src, dst string) int {
	p, err := n.PathTo(src, dst)
	if err != nil {
		return 0
	}
	return p.Channels()
}

// PeakBandwidth returns the single-channel bottleneck bandwidth
// (bytes/s) along the route, or 0 if unreachable. This is the ceiling
// a single serialized message stream can achieve.
func (n *Network) PeakBandwidth(src, dst string) float64 {
	p, err := n.PathTo(src, dst)
	if err != nil {
		return 0
	}
	return p.PeakBandwidth()
}

// AggregateBandwidth returns the bottleneck of per-hop summed channel
// bandwidth (bytes/s): the ceiling reachable by splitting a message
// across all parallel channels.
func (n *Network) AggregateBandwidth(src, dst string) float64 {
	p, err := n.PathTo(src, dst)
	if err != nil {
		return 0
	}
	return p.AggregateBandwidth()
}

// BaseLatency returns the sum of propagation latencies along the
// route (zero-byte wire time, no contention).
func (n *Network) BaseLatency(src, dst string) sim.Time {
	p, err := n.PathTo(src, dst)
	if err != nil {
		return 0
	}
	return p.BaseLatency()
}

// LookaheadBound returns the minimum propagation latency over every
// link in the fabric. No message can cross between distinct nodes in
// less simulated time than this, so it is the conservative-parallel
// lookahead bound the window engine uses to advance node groups past
// the global horizon safely (DESIGN.md §11). A linkless fabric
// returns 0: no lookahead exists and the world must stay one group.
func (n *Network) LookaheadBound() sim.Time {
	min := sim.Time(-1)
	for _, groups := range n.adj {
		for _, g := range groups {
			for _, l := range g.links {
				if min < 0 || l.Latency() < min {
					min = l.Latency()
				}
			}
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// Reset clears reservation state and counters on every link, plus the
// adaptive-routing pick counters.
func (n *Network) Reset() {
	for _, groups := range n.adj {
		for _, g := range groups {
			for _, l := range g.links {
				l.Reset()
			}
		}
	}
	n.minPicks, n.altPicks = 0, 0
}

// Stats returns cumulative counters for every link that carried at
// least one message, sorted by name.
func (n *Network) Stats() []LinkStats {
	var out []LinkStats
	for _, node := range n.nodes {
		for _, g := range n.adj[node] {
			for _, l := range g.links {
				if s := l.Stats(); s.Messages > 0 {
					out = append(out, s)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ClassStats is the per-link-class aggregate of link counters: how
// much of the fabric's traffic each topology tier (intra-router /
// local / global, edge / aggregation / core) carried.
type ClassStats struct {
	Class    string
	Links    int // directed links in the class
	Messages int64
	Bytes    int64
	BusyTime sim.Time
}

// MeanUtilization returns the class's mean per-link busy fraction over
// [0, horizon].
func (s ClassStats) MeanUtilization(horizon sim.Time) float64 {
	if horizon <= 0 || s.Links == 0 {
		return 0
	}
	return float64(s.BusyTime) / float64(horizon) / float64(s.Links)
}

// ClassStatsAll aggregates link counters by link class (including
// links that carried no traffic, so per-class utilization has the
// right denominator), sorted by class name. Unclassified links
// aggregate under "".
func (n *Network) ClassStatsAll() []ClassStats {
	agg := map[string]*ClassStats{}
	for _, node := range n.nodes {
		for _, g := range n.adj[node] {
			for _, l := range g.links {
				c, ok := agg[l.class]
				if !ok {
					c = &ClassStats{Class: l.class}
					agg[l.class] = c
				}
				c.Links++
				c.Messages += l.messages
				c.Bytes += l.bytes
				c.BusyTime += l.busy
			}
		}
	}
	out := make([]ClassStats, 0, len(agg))
	for _, c := range agg {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
