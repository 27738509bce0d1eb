package netsim

import "sort"

// Test-only views for the external route property test
// (resolve_property_test.go), which needs the machine catalog and so
// cannot live in this package.

// HopNames lists the nodes a path enters, in order (empty for a
// same-node path).
func HopNames(p *Path) []string { return groupNames(p.groups) }

func groupNames(groups []*channelGroup) []string {
	out := make([]string, len(groups))
	for i, g := range groups {
		out[i] = g.to
	}
	return out
}

// RefMin is the reference minimal route from src to dst: a BFS over
// the adjacency with slices allocated fresh for this call, so no state
// can leak in from an earlier resolution. ok is false when dst is
// unreachable.
func RefMin(n *Network, src, dst string) (hops []string, ok bool) {
	groups, ok := refBFS(n, src, dst)
	return groupNames(groups), ok
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
// maxAltsPerRoute. Each alternative is listed as its hop names.
func RefAlts(n *Network, src, dst string) [][]string {
	if n.routing != RouteAdaptive || src == dst {
		return nil
	}
	min, _ := refBFS(n, src, dst)
	var alts [][]*channelGroup
	for _, via := range n.detours {
		if via == src || via == dst || !n.HasNode(via) {
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
		out[i] = groupNames(a)
	}
	return out
}
