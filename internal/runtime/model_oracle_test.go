package runtime

import (
	"slices"
	"testing"

	"msgroofline/internal/core"
	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// TestModelMatchesUncontendedWire is the oracle between the analytic
// model and the simulator: for every catalog machine, every transport
// it has and the rank pairs (0, 1), (0, R/2) and (0, R-1) with
// R = min(MaxRanks, 1024), the parameters core.ForMachine builds must
// charge what Endpoint.wireTime charges one message over idle links.
//
//   - L is SyncRoundTrips times the zero-byte wire time, exactly.
//   - The B-byte minus zero-byte wire time is at least SerTime(B),
//     and equal to it between ranks on one node and over one-link
//     routes that are not host-staged; store-and-forward on every hop
//     and the staged legs only add to it.
func TestModelMatchesUncontendedWire(t *testing.T) {
	const bytes = 1 << 20
	cells, slower := 0, 0
	for _, cfg := range machine.All() {
		r := min(cfg.MaxRanks, 1024)
		trs := make([]machine.Transport, 0, len(cfg.Transports))
		for tr := range cfg.Transports {
			trs = append(trs, tr)
		}
		slices.Sort(trs)
		for _, tr := range trs {
			tp := cfg.Transports[tr]
			for _, dst := range []int{1, r / 2, r - 1} {
				cells++
				m, err := core.ForMachine(cfg, tr, r, 0, dst)
				if err != nil {
					t.Fatal(err)
				}
				// Each timing runs on a fresh world, so the second
				// transfer finds the links idle.
				world := func() *World {
					w, err := NewWorldSharded(cfg, r, 1)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				zero := world().Endpoint(0).wireTime(tp, 0, dst, 0, 0)
				w := world()
				ep, to := w.Endpoint(0), w.Endpoint(dst)
				ser := ep.wireTime(tp, 0, dst, bytes, 0) - zero
				if want := sim.Time(max(1, tp.SyncRoundTrips)) * zero; m.Params.L != want {
					t.Errorf("%s %v 0->%d: model L = %v, simulator charges %v", cfg.Name, tr, dst, m.Params.L, want)
				}
				staged := tp.HostStaged && ep.host >= 0 && to.host >= 0
				exact := ep.node == to.node || (!staged && w.route(ep.node, to.node).Hops() == 1)
				switch model := m.Params.SerTime(bytes); {
				case ser < model || (exact && ser != model):
					t.Errorf("%s %v 0->%d: %d B serialize in %v, model B·G = %v", cfg.Name, tr, dst, bytes, ser, model)
				case ser > model:
					slower++
				}
			}
		}
	}
	t.Logf("%d cells; the simulator serializes %d B more slowly than B·G in %d", cells, bytes, slower)
}
