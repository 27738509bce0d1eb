package trace

import (
	"fmt"
	"sort"
	"strings"
)

// TrafficMatrix aggregates recorded events into per-(src, dst) byte
// and message counts — the communication heat map of a run, useful
// for spotting topology hotspots (e.g. Summit's X-Bus pairs). It
// stores only the pairs that communicated, so its size follows the
// run's traffic, not Ranks².
type TrafficMatrix struct {
	Ranks int
	// pairs holds every communicating pair, sorted by (Src, Dst).
	pairs []Pair
}

// Matrix builds the traffic matrix for `ranks` endpoints; events
// referencing out-of-range ranks are ignored.
func (r *Recorder) Matrix(ranks int) *TrafficMatrix {
	m := &TrafficMatrix{Ranks: ranks}
	index := make(map[[2]int]int)
	for _, e := range r.events {
		if e.Src < 0 || e.Src >= ranks || e.Dst < 0 || e.Dst >= ranks {
			continue
		}
		key := [2]int{e.Src, e.Dst}
		i, ok := index[key]
		if !ok {
			i = len(m.pairs)
			index[key] = i
			m.pairs = append(m.pairs, Pair{Src: e.Src, Dst: e.Dst})
		}
		m.pairs[i].Bytes += e.Bytes
		m.pairs[i].Messages++
	}
	sort.Slice(m.pairs, func(i, j int) bool { return m.pairs[i].less(m.pairs[j]) })
	return m
}

// Pair is one (src, dst) traffic entry.
type Pair struct {
	Src, Dst int
	Bytes    int64
	Messages int64
}

func (p Pair) less(q Pair) bool {
	if p.Src != q.Src {
		return p.Src < q.Src
	}
	return p.Dst < q.Dst
}

// At returns the traffic from src to dst (zero counts if the pair
// never communicated).
func (m *TrafficMatrix) At(src, dst int) Pair {
	want := Pair{Src: src, Dst: dst}
	i := sort.Search(len(m.pairs), func(i int) bool { return !m.pairs[i].less(want) })
	if i < len(m.pairs) && m.pairs[i].Src == src && m.pairs[i].Dst == dst {
		return m.pairs[i]
	}
	return want
}

// Hottest returns the top-k pairs by byte volume, descending.
func (m *TrafficMatrix) Hottest(k int) []Pair {
	all := append([]Pair(nil), m.pairs...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Bytes > all[j].Bytes })
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Imbalance is the max/mean ratio of per-pair byte volume across
// pairs that communicated at all (1 = perfectly balanced).
func (m *TrafficMatrix) Imbalance() float64 {
	var max, sum int64
	for _, p := range m.pairs {
		sum += p.Bytes
		if p.Bytes > max {
			max = p.Bytes
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(m.pairs))
	return float64(max) / mean
}

// String renders a compact heat map (byte volumes, KiB) for small
// rank counts.
func (m *TrafficMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic matrix (%d ranks, KiB):\n", m.Ranks)
	show := m.Ranks
	if show > 16 {
		show = 16
	}
	for s := 0; s < show; s++ {
		fmt.Fprintf(&b, "%4d:", s)
		for d := 0; d < show; d++ {
			fmt.Fprintf(&b, " %6.1f", float64(m.At(s, d).Bytes)/1024)
		}
		fmt.Fprintln(&b)
	}
	if m.Ranks > show {
		fmt.Fprintf(&b, "  (truncated to %dx%d)\n", show, show)
	}
	return b.String()
}
