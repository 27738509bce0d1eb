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
	// back is the group of the same AddLink in the other direction.
	back *channelGroup
}

// Network is a directed multigraph of nodes joined by channel groups.
// Routing is static shortest-path (hop count, ties broken by insertion
// order), computed lazily and cached per attachment pair: a node of
// degree 1 (a leaf, such as a generated fabric's compute node)
// attaches at its only neighbour, every other node at itself. A node
// pair's route is the leaves' end hops around the cached core route
// between the attachments (RouteAt), so route state grows with the
// routers of a fabric, not with its nodes squared. Callers that send
// between placed ranks keep the ranks' node indices (NodeIndex) and
// look routes up by index (RouteAt), which skips hashing the names.
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
	// adjx is the adjacency, indexed by dense node index so BFS runs
	// over int32 slices instead of string-keyed maps (a map-based walk
	// dominated first-touch route resolution on 1K-node fabrics). Each
	// node's entries are in link-insertion order, which fixes BFS
	// tie-breaking.
	adjx [][]xgroup
	// trees holds the lazily built BFS predecessor tree of each source
	// node (see tree); AddNode and AddLink drop the whole set.
	trees atomic.Pointer[treeSet]
	// cache holds the lazily-populated core path and route caches,
	// keyed and sharded by attachment pair. Routes resolve on first use, mostly at the
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
	// self is the empty route every node has to itself.
	self coreRoute
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
// keyed by the pairKey of two attachments.
type cacheShard struct {
	mu     sync.RWMutex
	paths  map[uint64]*Path
	routes map[uint64]*coreRoute
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
	}
	for i := range n.cache {
		n.cache[i].paths = make(map[uint64]*Path)
		n.cache[i].routes = make(map[uint64]*coreRoute)
	}
	n.self.min = &Path{net: n}
	n.self.min.metrics()
	return n
}

// Path is a resolved hop list between two nodes: the channel groups
// along the shortest route plus route metrics precomputed at
// resolution time. The cache holds the core paths and detour legs
// between attachments. A Path keeps working on its old links after
// the topology changes (AddLink).
type Path struct {
	net    *Network
	groups []*channelGroup
	summary
}

// summary holds the route metrics of a hop list. An empty list keeps
// +Inf bandwidths and a MaxInt channel count, which the accessors
// report as 0, 0 and 1.
type summary struct {
	hops    int
	baseLat sim.Time
	peakBW  float64
	aggBW   float64
	minCh   int
}

// Hops returns the number of hops (0 for a same-node path).
func (s summary) Hops() int { return s.hops }

// BaseLatency returns the summed propagation latency along the route
// (zero-byte wire time, no contention).
func (s summary) BaseLatency() sim.Time { return s.baseLat }

// PeakBandwidth returns the single-channel bottleneck bandwidth
// (bytes/s) along the route.
func (s summary) PeakBandwidth() float64 { return finite(s.peakBW) }

// AggregateBandwidth returns the bottleneck of per-hop summed channel
// bandwidth (bytes/s).
func (s summary) AggregateBandwidth() float64 { return finite(s.aggBW) }

// Channels returns the minimum number of parallel channels along the
// route (the usable injection-splitting width).
func (s summary) Channels() int {
	if s.minCh == math.MaxInt {
		return 1
	}
	return s.minCh
}

func finite(bw float64) float64 {
	if math.IsInf(bw, 1) {
		return 0
	}
	return bw
}

// add extends the summary by one hop over g.
func (s *summary) add(g *channelGroup) {
	s.hops++
	s.baseLat += g.links[0].Latency()
	if b := g.links[0].Bandwidth(); b < s.peakBW {
		s.peakBW = b
	}
	sum := 0.0
	for _, l := range g.links {
		sum += l.Bandwidth()
	}
	if sum < s.aggBW {
		s.aggBW = sum
	}
	if len(g.links) < s.minCh {
		s.minCh = len(g.links)
	}
}

// metrics fills in the precomputed route summaries from the hop list.
func (p *Path) metrics() {
	p.summary = summary{peakBW: math.Inf(1), aggBW: math.Inf(1), minCh: math.MaxInt}
	for _, g := range p.groups {
		p.add(g)
	}
}

// link returns the member of g that channel ch rides.
func (g *channelGroup) link(ch int) *Link {
	return g.links[((ch%len(g.links))+len(g.links))%len(g.links)]
}

// Transfer delivers a message of the given size along the path,
// injected at time at on channel ch, using store-and-forward timing
// per hop with FIFO link contention. It returns the delivery time of
// the last byte. When fault injection is installed on the owning
// network, the delivery may additionally suffer a latency spike or
// drop-and-retransmit rounds (see faults.go).
func (p *Path) Transfer(at sim.Time, bytes int64, ch int) sim.Time {
	once := func(t sim.Time) sim.Time { return p.transferOnce(t, bytes, ch) }
	return p.net.faults.apply(once(at), once)
}

// transferOnce is one fault-free transmission attempt along the path.
func (p *Path) transferOnce(at sim.Time, bytes int64, ch int) sim.Time {
	t := at
	for _, g := range p.groups {
		_, t = g.link(ch).Reserve(t, bytes)
	}
	return t
}

// packetOnce is one fault-free packet flight along the path: each hop
// is held for `occupancy` while the packet cuts through at
// propagation latency.
func (p *Path) packetOnce(at, occupancy sim.Time, ch int) sim.Time {
	t := at
	for _, g := range p.groups {
		_, t = g.link(ch).ReservePacket(t, occupancy)
	}
	return t
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
// nodes if needed. Adding a link invalidates cached routes (it may
// also turn a leaf into a node that attaches at itself).
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
	rev := &channelGroup{to: a, back: fwd}
	fwd.back = rev
	for c := 0; c < channels; c++ {
		fl := NewLink(fmt.Sprintf("%s->%s#%d", a, b, c), bandwidth, latency)
		rl := NewLink(fmt.Sprintf("%s->%s#%d", b, a, c), bandwidth, latency)
		fl.class, rl.class = class, class
		fwd.links = append(fwd.links, fl)
		rev.links = append(rev.links, rl)
	}
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

// pathTo resolves (and caches) the core path between two attachments;
// ok is false when di is unreachable. On a cache miss it builds the
// path outside any lock, then installs it in the shard under a
// double-check, so every caller sees the same canonical *Path (racing
// resolvers build identical values; the insert loser adopts the
// winner's).
func (n *Network) pathTo(si, di int32) (*Path, bool) {
	key := pairKey(si, di)
	sh := n.shard(key)
	sh.mu.RLock()
	p, ok := sh.paths[key]
	sh.mu.RUnlock()
	if ok {
		return p, true
	}
	p = &Path{net: n}
	if si != di {
		prev, hops := n.span(si, di)
		if hops < 0 {
			return nil, false
		}
		p.groups = make([]*channelGroup, hops)
		for x, i := di, hops-1; x != si; x, i = prev[x], i-1 {
			p.groups[i] = n.edge(prev[x], x)
		}
	}
	p.metrics()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q, ok := sh.paths[key]; ok {
		return q, true // lost a resolve race; the winner is canonical
	}
	sh.paths[key] = p
	return p, true
}

// span locates the shortest route from si to di (si != di) on si's
// BFS tree: it returns the tree and the hop count (-1 when di is
// unreachable). Core routes start at attachments, so only nodes of
// degree 2 or more (the routers and switches of a generated fabric,
// not its endpoints) ever get a tree of their own.
func (n *Network) span(si, di int32) (prev []int32, hops int) {
	prev = n.tree(si)
	if prev[di] == -1 {
		return prev, -1
	}
	for x := di; x != si; x = prev[x] {
		hops++
	}
	return prev, hops
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

// LookaheadBound returns the minimum propagation latency over every
// link in the fabric. No message can cross between distinct nodes in
// less simulated time than this, so it is the conservative-parallel
// lookahead bound the window engine uses to advance node groups past
// the global horizon safely (DESIGN.md §11). A linkless fabric
// returns 0: no lookahead exists and the world must stay one group.
func (n *Network) LookaheadBound() sim.Time {
	min := sim.Time(-1)
	for _, edges := range n.adjx {
		for _, x := range edges {
			for _, l := range x.g.links {
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
	for _, edges := range n.adjx {
		for _, x := range edges {
			for _, l := range x.g.links {
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
	for _, edges := range n.adjx {
		for _, x := range edges {
			for _, l := range x.g.links {
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
	for _, edges := range n.adjx {
		for _, x := range edges {
			for _, l := range x.g.links {
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
