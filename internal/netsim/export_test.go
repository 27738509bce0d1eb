package netsim

import (
	"fmt"
	"sort"

	"msgroofline/internal/sim"
)

// Test-only views for the external route property tests
// (resolve_property_test.go, detour_oracle_test.go), which need the
// machine catalog and so cannot live in this package.

// CachedRoutes counts the core routes in n's cache.
func CachedRoutes(n *Network) int { return len(n.routes) }

// HopNames lists the hops of a path leaving src, each as "node/k": the
// node entered and the position k, among the edges of the node left,
// of the channel group taken. Parallel links between one pair render
// apart, so a path over the wrong one of them shows up.
func HopNames(n *Network, src string, p *Path) []string { return hopNames(n, src, p.groups) }

func hopNames(n *Network, src string, groups []*channelGroup) []string {
	out := make([]string, len(groups))
	cur := n.nodeIndex[src]
	for i, g := range groups {
		k := -1
		for j, x := range n.adjx[cur] {
			if x.g == g {
				k = j
				break
			}
		}
		out[i] = fmt.Sprintf("%s/%d", g.to, k)
		cur = n.nodeIndex[g.to]
	}
	return out
}

// RefMin is the reference minimal route from src to dst: a BFS over
// the adjacency that stops at dst, with slices allocated fresh for
// this call, so no state can leak in from an earlier resolution. ok is
// false when dst is unreachable.
func RefMin(n *Network, src, dst string) (hops []string, ok bool) {
	groups, ok := refBFS(n, src, dst)
	return hopNames(n, src, groups), ok
}

func refBFS(n *Network, src, dst string) ([]*channelGroup, bool) {
	si, di := int32(n.nodeIndex[src]), int32(n.nodeIndex[dst])
	prev := make([]int32, len(n.nodes))
	for i := range prev {
		prev[i] = -1
	}
	via := make([]*channelGroup, len(n.nodes))
	prev[si] = si
	queue := []int32{si}
	for qi := 0; qi < len(queue) && queue[qi] != di; qi++ {
		for _, x := range n.adjx[queue[qi]] {
			if prev[x.to] == -1 {
				prev[x.to], via[x.to] = queue[qi], x.g
				queue = append(queue, x.to)
			}
		}
	}
	if prev[di] == -1 {
		return nil, false
	}
	var rev []*channelGroup
	for cur := di; cur != si; cur = prev[cur] {
		rev = append(rev, via[cur])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// RefAlts is the reference adaptive alternative set for src -> dst
// under RouteAdaptive: every usable detour's two-leg path built in
// full from reference BFS legs, stably sorted by hop count, cut to
// maxAltsPerRoute. A detour is usable when it is neither endpoint nor
// a leaf, and its two legs are longer than the minimal path. Each
// alternative is listed as its HopNames.
func RefAlts(n *Network, src, dst string) [][]string {
	if n.routing != RouteAdaptive || src == dst {
		return nil
	}
	min, _ := refBFS(n, src, dst)
	var alts [][]*channelGroup
	for _, via := range n.detours {
		if via == src || via == dst || n.NodeIndex(via) < 0 || len(n.adjx[n.NodeIndex(via)]) == 1 {
			continue
		}
		a, okA := refBFS(n, src, via)
		b, okB := refBFS(n, via, dst)
		if !okA || !okB || len(a)+len(b) <= len(min) {
			continue
		}
		alts = append(alts, append(append([]*channelGroup{}, a...), b...))
	}
	sort.SliceStable(alts, func(i, j int) bool { return len(alts[i]) < len(alts[j]) })
	if len(alts) > maxAltsPerRoute {
		alts = alts[:maxAltsPerRoute]
	}
	out := make([][]string, len(alts))
	for i, a := range alts {
		out[i] = hopNames(n, src, a)
	}
	return out
}

// RefTransfer is the reference adaptive transfer over r, with the
// minimal path and each detour given as one concatenated Path (alts,
// as Route.Alts builds them): every candidate is priced over its full
// hop list and the winner is sent with Path.Transfer, tallying the pick
// on r's network.
func RefTransfer(r Route, alts []*Path, at sim.Time, bytes int64, ch int) sim.Time {
	min := r.Min()
	if len(alts) == 0 {
		return min.Transfer(at, bytes, ch)
	}
	best, bestCost := min, refCost(min, at, bytes, ch)
	for _, alt := range alts {
		if c := refCost(alt, at, bytes, ch); c < bestCost {
			best, bestCost = alt, c
		}
	}
	if best == min {
		min.net.minPicks++
	} else {
		min.net.altPicks++
	}
	return best.Transfer(at, bytes, ch)
}

// refCost prices a whole path: its summed propagation latency plus,
// per hop, serialization on the chosen link and how far past `at` that
// link is already booked.
func refCost(p *Path, at sim.Time, bytes int64, ch int) sim.Time {
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
