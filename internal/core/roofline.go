// Package core implements the paper's primary contribution: the
// Message Roofline Model. It characterizes an application's sustained
// messaging performance (GB/s) as a function of message size, number
// of messages per synchronization, peak network bandwidth, and network
// latency. It owns the model's LogGP parameter set (Params), the one
// constructor of analytic parameters (NewParams, which ForMachine and
// the Ridgeline's network ceiling call), the least-squares fit of
// measured sweeps (Fit), and provides
//
//   - the sharp bound  B / max(o, L, B·G) (ideal, unattainable),
//   - the rounded bound B / (o + max(L, B·G)) (empirically observed),
//   - the family of latency ceilings, one per msg/sync value n:
//     n·B / (n·k·o + L + n·max(g, B·G)),
//   - placement of measured workloads as dots on the plot,
//   - the tighter communication bound for a workload given its
//     msg/sync (the paper's headline improvement over flood bounds),
//   - the message-splitting analysis of Fig. 10.
package core

import (
	"fmt"
	"math"

	"msgroofline/internal/machine"
	"msgroofline/internal/plot"
	"msgroofline/internal/sim"
	"msgroofline/internal/trace"
)

// Model is a Message Roofline for one (machine, transport) pair.
type Model struct {
	// Name labels the model in plots, e.g. "perlmutter-cpu two-sided".
	Name string
	// Params are the LogGP parameters, either analytic (NewParams over
	// the machine catalog) or fitted from measured sweeps (Fit).
	Params Params
	// TheoreticalGBs is the horizontal ceiling drawn on plots (the
	// marketing peak; may exceed Params.Bandwidth, as on Summit).
	TheoreticalGBs float64
	// AggregateGBs, when nonzero, is the multi-channel ceiling a
	// split message stream can reach (Perlmutter GPU: 100 vs 25).
	AggregateGBs float64
	// Channels is the number of parallel injection channels.
	Channels int
}

// ForMachine derives the analytic model for traffic between two
// representative ranks on a catalog machine.
func ForMachine(cfg *machine.Config, tr machine.Transport, ranks, src, dst int) (*Model, error) {
	inst, err := cfg.Instantiate(ranks)
	if err != nil {
		return nil, err
	}
	tp, ok := cfg.Params(tr)
	if !ok {
		return nil, fmt.Errorf("machine %s: transport %v not available", cfg.Name, tr)
	}
	wire, bw := pairWire(inst, tp, src, dst)
	m := &Model{
		Name:           fmt.Sprintf("%s %s", cfg.Name, tr),
		Params:         NewParams(tp, wire, bw),
		TheoreticalGBs: cfg.TheoreticalGBs,
		Channels:       1,
	}
	if !inst.SameNode(src, dst) {
		a, b := inst.Places[src].Node, inst.Places[dst].Node
		m.Channels = inst.Net.Channels(a, b)
		m.AggregateGBs = inst.Net.AggregateBandwidth(a, b) / 1e9
	}
	return m, nil
}

// pairWire returns the zero-byte wire latency and single-channel
// bottleneck bandwidth from rank src to rank dst, read from the
// placement data runtime.Endpoint.wireTime reads: shared memory on one
// node; otherwise the route, plus CrossSocketExtra across sockets. A
// host-staged transport between ranks that both have hosts takes the
// device→host, host→host and host→device legs (a leg whose ends
// coincide is skipped): their latencies add, and the slowest leg sets
// the bandwidth.
func pairWire(in *machine.Instance, tp machine.TransportParams, src, dst int) (sim.Time, float64) {
	a, b := in.Places[src], in.Places[dst]
	if a.Node == b.Node {
		return in.Cfg.MemLatency, in.Cfg.MemBandwidth
	}
	var wire sim.Time
	if a.Socket != b.Socket {
		wire = tp.CrossSocketExtra
	}
	legs := [][2]string{{a.Node, b.Node}}
	if tp.HostStaged && a.Host != "" && b.Host != "" {
		legs = [][2]string{{a.Node, a.Host}, {a.Host, b.Host}, {b.Host, b.Node}}
	}
	bw := math.Inf(1)
	for _, l := range legs {
		if l[0] != l[1] {
			wire += in.Net.BaseLatency(l[0], l[1])
			bw = min(bw, in.Net.PeakBandwidth(l[0], l[1]))
		}
	}
	return wire, bw
}

// SharpGBs is the sharp bound at message size b, in GB/s.
func (m *Model) SharpGBs(b int64) float64 { return m.Params.SharpBandwidth(b) / 1e9 }

// RoundedGBs is the rounded bound at message size b, in GB/s.
func (m *Model) RoundedGBs(b int64) float64 { return m.Params.RoundedBandwidth(b) / 1e9 }

// CeilingGBs is the latency-ceiling value for n messages of b bytes
// per synchronization, in GB/s. This is the paper's tighter, realistic
// bound: the flood bound is CeilingGBs with n -> infinity.
func (m *Model) CeilingGBs(n int, b int64) float64 {
	return m.Params.SweepBandwidth(n, b) / 1e9
}

// FloodGBs is the classic loose upper bound obtained from a flood
// benchmark: latency fully amortized (n very large).
func (m *Model) FloodGBs(b int64) float64 {
	return m.CeilingGBs(1<<20, b)
}

// OverlapGain is how much faster n messages per sync complete,
// per message, than serialized single-message synchronization — the
// "you can get 10x by sending one hundred messages per sync" reading
// of Fig 1.
func (m *Model) OverlapGain(b int64, n int) float64 {
	t1 := m.Params.MsgLatency(1, b)
	tn := m.Params.MsgLatency(n, b)
	if tn <= 0 {
		return 0
	}
	return float64(t1) / float64(tn)
}

// Dot is a workload placed on the roofline.
type Dot struct {
	Name string
	// Bytes is the workload's mean message size (x coordinate).
	Bytes float64
	// GBs is the sustained bandwidth achieved (y coordinate).
	GBs float64
	// MsgsPerSync locates which latency ceiling applies.
	MsgsPerSync float64
	// BoundGBs is the model ceiling at this message size and
	// msg/sync — the tight bound the paper advocates.
	BoundGBs float64
	// FloodBoundGBs is the loose flood bound at this message size.
	FloodBoundGBs float64
}

// Efficiency is achieved bandwidth over the tight bound.
func (d Dot) Efficiency() float64 {
	if d.BoundGBs <= 0 {
		return 0
	}
	return d.GBs / d.BoundGBs
}

// Place positions a measured workload summary on this roofline.
func (m *Model) Place(name string, s trace.Summary) Dot {
	n := int(s.MsgsPerSync + 0.5)
	if n < 1 {
		n = 1
	}
	b := int64(s.MeanBytes + 0.5)
	if b < 1 {
		b = 1
	}
	return Dot{
		Name:          name,
		Bytes:         s.MeanBytes,
		GBs:           s.SustainedGBs,
		MsgsPerSync:   s.MsgsPerSync,
		BoundGBs:      m.CeilingGBs(n, b),
		FloodBoundGBs: m.FloodGBs(b),
	}
}

// DefaultSizes is the message-size sweep used by the paper's figures:
// 8 B to 4 MiB by powers of two.
func DefaultSizes() []int64 {
	var out []int64
	for b := int64(8); b <= 4<<20; b *= 2 {
		out = append(out, b)
	}
	return out
}

// CeilingSeries returns the latency ceiling for a fixed n across
// sizes, as a plottable series (x = bytes, y = GB/s).
func (m *Model) CeilingSeries(n int, sizes []int64) plot.Series {
	s := plot.Series{Name: fmt.Sprintf("%d msg/sync", n)}
	for _, b := range sizes {
		s.X = append(s.X, float64(b))
		s.Y = append(s.Y, m.CeilingGBs(n, b))
	}
	return s
}

// SharpSeries returns the sharp roofline across sizes.
func (m *Model) SharpSeries(sizes []int64) plot.Series {
	s := plot.Series{Name: "sharp bound"}
	for _, b := range sizes {
		s.X = append(s.X, float64(b))
		s.Y = append(s.Y, m.SharpGBs(b))
	}
	return s
}

// RoundedSeries returns the rounded roofline across sizes.
func (m *Model) RoundedSeries(sizes []int64) plot.Series {
	s := plot.Series{Name: "rounded bound"}
	for _, b := range sizes {
		s.X = append(s.X, float64(b))
		s.Y = append(s.Y, m.RoundedGBs(b))
	}
	return s
}

// Chart assembles the full Message Roofline figure: the theoretical
// ceiling, the latency-ceiling family, and any dots.
func (m *Model) Chart(ns []int, sizes []int64, dots []Dot) *plot.Chart {
	c := &plot.Chart{
		Title:  fmt.Sprintf("Message Roofline — %s", m.Name),
		XLabel: "message size (bytes)",
		YLabel: "GB/s",
		XLog:   true,
		YLog:   true,
	}
	if m.TheoreticalGBs > 0 {
		ceiling := plot.Series{Name: fmt.Sprintf("theoretical %.0f GB/s", m.TheoreticalGBs)}
		for _, b := range sizes {
			ceiling.X = append(ceiling.X, float64(b))
			ceiling.Y = append(ceiling.Y, m.TheoreticalGBs)
		}
		c.Add(ceiling)
	}
	for _, n := range ns {
		c.Add(m.CeilingSeries(n, sizes))
	}
	for _, d := range dots {
		c.Add(plot.Series{Name: d.Name, X: []float64{d.Bytes}, Y: []float64{d.GBs}})
	}
	return c
}

// SplitTime models sending `volume` bytes as `parts` equal messages
// over `channels` parallel injection channels: issue overheads
// serialize, the latency is paid once, and serialization proceeds in
// ceil(parts/channels) waves at the single-channel rate. Like
// SweepTime it charges the trigger latency of offloaded transports
// once, with L.
func SplitTime(p Params, volume int64, parts, channels int) sim.Time {
	if parts < 1 {
		parts = 1
	}
	if channels < 1 {
		channels = 1
	}
	per := volume / int64(parts)
	waves := (parts + channels - 1) / channels
	ser := p.SerTime(per)
	if p.Gap > ser {
		ser = p.Gap
	}
	return sim.Time(parts)*sim.Time(p.OpsPerMsg)*p.O + p.L + p.Trigger + sim.Time(waves)*ser
}

// SplitSpeedup is the modeled Fig-10 quantity: time of one message of
// `volume` bytes over the time of the same volume split `parts` ways.
func (m *Model) SplitSpeedup(volume int64, parts int) float64 {
	one := SplitTime(m.Params, volume, 1, m.Channels)
	split := SplitTime(m.Params, volume, parts, m.Channels)
	if split <= 0 {
		return math.NaN()
	}
	return float64(one) / float64(split)
}

// SplitSeries returns modeled split speedup across message volumes
// (x = volume bytes, y = speedup of `parts`-way splitting).
func (m *Model) SplitSeries(parts int, volumes []int64) plot.Series {
	s := plot.Series{Name: fmt.Sprintf("%d-way split", parts)}
	for _, v := range volumes {
		s.X = append(s.X, float64(v))
		s.Y = append(s.Y, m.SplitSpeedup(v, parts))
	}
	return s
}
