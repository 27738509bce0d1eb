package core

import (
	"errors"
	"fmt"
	"math"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
	"msgroofline/internal/stats"
)

// Params is one transport's LogGP parameter set (Alexandrov et al.,
// SPAA'95). L, g and G can be overlapped with computation, and L and G
// further by issuing more messages per synchronization; o and g can
// not.
type Params struct {
	L         sim.Time // network latency
	O         sim.Time // overhead per library operation
	Gap       sim.Time // minimum inter-injection gap per message
	Bandwidth float64  // bytes per second (G = 1/Bandwidth)
	OpsPerMsg int      // library operations needed per application message
	// Trigger is the device-side fire delay of offloaded transports
	// (stream-triggered MPI): latency paid between dependency
	// resolution and wire entry. It extends L, not o — the host is off
	// the critical path — so every latency term below uses L+Trigger.
	Trigger sim.Time
}

// NewParams builds the analytic parameter set of transport tp over a
// wire with zero-byte latency wire and single-channel bandwidth bw
// (bytes/s). It charges what the simulator charges: each of the
// SyncRoundTrips remote completions a synchronized message waits for
// pays the software latency and the wire again, so
// L = max(1, rt)·(SoftLatency + wire), while the trigger delay of
// offloaded transports stays apart from L.
func NewParams(tp machine.TransportParams, wire sim.Time, bw float64) Params {
	return Params{
		L:         sim.Time(max(1, tp.SyncRoundTrips)) * (tp.SoftLatency + wire),
		O:         tp.OpOverhead,
		Gap:       tp.Gap,
		Bandwidth: bw,
		OpsPerMsg: tp.OpsPerMsg,
		Trigger:   tp.TriggerLatency,
	}
}

// G returns the per-byte time in picoseconds (1/bandwidth).
func (p Params) G() float64 {
	// Not `<= 0`: NaN bandwidth fails that comparison too and would
	// propagate NaN into every derived time.
	if !(p.Bandwidth > 0) {
		return 0
	}
	return float64(sim.Second) / p.Bandwidth
}

// Validate reports structural problems with the parameter set.
func (p Params) Validate() error {
	switch {
	// NaN fails every comparison, so `<= 0` alone would wave a NaN
	// bandwidth through and G() would poison every downstream time.
	case math.IsNaN(p.Bandwidth) || math.IsInf(p.Bandwidth, 0) || p.Bandwidth <= 0:
		return fmt.Errorf("core: bandwidth must be positive and finite, got %v", p.Bandwidth)
	case p.L < 0 || p.O < 0 || p.Gap < 0 || p.Trigger < 0:
		return errors.New("core: negative time parameter")
	case p.OpsPerMsg < 1:
		return fmt.Errorf("core: OpsPerMsg must be >= 1, got %d", p.OpsPerMsg)
	}
	return nil
}

// SerTime returns the serialization time of b bytes at the modeled
// bandwidth.
func (p Params) SerTime(b int64) sim.Time {
	return sim.TransferTime(b, p.Bandwidth)
}

// SweepTime returns the modeled completion time of one synchronization
// window: n messages of b bytes each, k = OpsPerMsg library operations
// per message. Overheads serialize (n·k·o); serialization is the
// larger of the gap and the wire time per message (n·max(g, B·G));
// latency is paid once because overlapped messages hide it:
//
//	t(n, B) = n·k·o + (L+T) + n·max(g, B·G)
//
// where T is the trigger latency of offloaded transports (zero for
// host-driven stacks).
func (p Params) SweepTime(n int, b int64) sim.Time {
	if n <= 0 {
		return 0
	}
	per := p.SerTime(b)
	if p.Gap > per {
		per = p.Gap
	}
	return sim.Time(n)*sim.Time(p.OpsPerMsg)*p.O + p.L + p.Trigger + sim.Time(n)*per
}

// SweepBandwidth returns the modeled sustained bandwidth (bytes/s) of
// a synchronization window of n messages of b bytes.
func (p Params) SweepBandwidth(n int, b int64) float64 {
	t := p.SweepTime(n, b)
	if t <= 0 {
		return 0
	}
	return float64(n) * float64(b) / t.Seconds()
}

// MsgLatency returns the modeled amortized time per message in a
// window of n messages of b bytes: SweepTime / n.
func (p Params) MsgLatency(n int, b int64) sim.Time {
	if n <= 0 {
		return 0
	}
	return p.SweepTime(n, b) / sim.Time(n)
}

// SharpBandwidth is the idealized "sharp" Message Roofline bound,
// B / max(o, L, B·G): the junction of the diagonal and horizontal
// ceilings that is never practically reached.
func (p Params) SharpBandwidth(b int64) float64 {
	denom := sim.Time(p.OpsPerMsg) * p.O
	if lat := p.L + p.Trigger; lat > denom {
		denom = lat
	}
	if ser := p.SerTime(b); ser > denom {
		denom = ser
	}
	if denom <= 0 {
		return 0
	}
	return float64(b) / denom.Seconds()
}

// RoundedBandwidth is the empirically observed "rounded" bound,
// B / (o + max(L, B·G)): overhead always adds to the message time.
func (p Params) RoundedBandwidth(b int64) float64 {
	m := p.L + p.Trigger
	if ser := p.SerTime(b); ser > m {
		m = ser
	}
	denom := sim.Time(p.OpsPerMsg)*p.O + m
	if denom <= 0 {
		return 0
	}
	return float64(b) / denom.Seconds()
}

// OffloadBandwidth is the roofline ceiling of a fully offloaded
// transport: the host overhead o is off the critical path (descriptors
// are enqueued ahead of time), so messages are bounded only by the
// triggered latency and the wire, B / max(L+T, B·G). For Trigger == 0
// this degenerates to the latency/wire ceiling without the o term.
func (p Params) OffloadBandwidth(b int64) float64 {
	denom := p.L + p.Trigger
	if ser := p.SerTime(b); ser > denom {
		denom = ser
	}
	if denom <= 0 {
		return 0
	}
	return float64(b) / denom.Seconds()
}

// String renders the parameters in human units.
func (p Params) String() string {
	if p.Trigger > 0 {
		return fmt.Sprintf("LogGP{L=%v o=%v g=%v bw=%.1fGB/s ops/msg=%d trigger=%v}",
			p.L, p.O, p.Gap, p.Bandwidth/1e9, p.OpsPerMsg, p.Trigger)
	}
	return fmt.Sprintf("LogGP{L=%v o=%v g=%v bw=%.1fGB/s ops/msg=%d}",
		p.L, p.O, p.Gap, p.Bandwidth/1e9, p.OpsPerMsg)
}

// Sample is one measured sweep point: n messages of Bytes each
// completed in Elapsed (one synchronization window).
type Sample struct {
	N       int
	Bytes   int64
	Elapsed sim.Time
}

// Fit builds a model by recovering (o, L, G) from measured samples
// with non-negative least squares on t = (n·k)·o + L + (n·B)·G, with
// k = opsPerMsg, as the paper does with its empirical dots. The
// parameters carry the supplied gap unchanged (the gap is not
// separable from o in this regression; callers measure it with a
// flood benchmark instead).
func Fit(name string, samples []Sample, opsPerMsg int, gap sim.Time, theoreticalGBs float64) (*Model, error) {
	if len(samples) < 3 {
		return nil, fmt.Errorf("core: need >= 3 samples to fit 3 parameters, got %d", len(samples))
	}
	if opsPerMsg < 1 {
		return nil, fmt.Errorf("core: opsPerMsg must be >= 1, got %d", opsPerMsg)
	}
	rows := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		rows[i] = []float64{
			float64(s.N) * float64(opsPerMsg), // coefficient of o
			1,                                 // coefficient of L
			float64(s.N) * float64(s.Bytes),   // coefficient of G
		}
		y[i] = float64(s.Elapsed)
	}
	c, err := stats.NonNegativeLeastSquares(rows, y)
	if err != nil {
		return nil, fmt.Errorf("core: fit failed: %w", err)
	}
	o, l, g := c[0], c[1], c[2]
	p := Params{
		L:         sim.Time(l + 0.5),
		O:         sim.Time(o + 0.5),
		Gap:       gap,
		OpsPerMsg: opsPerMsg,
	}
	if g > 0 {
		p.Bandwidth = float64(sim.Second) / g
	}
	return &Model{Name: name, Params: p, TheoreticalGBs: theoreticalGBs, Channels: 1}, nil
}

// FitError returns the RMS relative error of the model against the
// samples, a quick fit-quality check.
func FitError(p Params, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		pred := float64(p.SweepTime(s.N, s.Bytes))
		obs := float64(s.Elapsed)
		if obs == 0 {
			continue
		}
		rel := (pred - obs) / obs
		sum += rel * rel
	}
	return math.Sqrt(sum / float64(len(samples)))
}
