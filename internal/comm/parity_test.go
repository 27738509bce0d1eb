// Cross-transport parity: each workload kernel exists exactly once,
// so its semantic outcome must agree across all four transports. The
// transports run on different simulated hardware and legally differ
// in timing; what must match is the numerics.
package comm_test

import (
	"math"
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/stencil"
)

func TestStencilParityAcrossTransports(t *testing.T) {
	// Verified mode is pure dataflow over one fixed decomposition, so
	// the checksum must be bit-identical across transports (the serial
	// reference sums in a different order and only matches to
	// tolerance).
	serial := stencil.SerialReference(48, 5)
	first := math.NaN()
	for _, kind := range comm.Kinds() {
		res, err := stencil.Run(stencil.Config{
			Machine: machineFor(t, kind), Transport: kind,
			Grid: 48, Iters: 5, PX: 2, PY: 2, Verify: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if math.Abs(res.Checksum-serial) > 1e-9 {
			t.Fatalf("%s checksum %v far from serial %v", kind, res.Checksum, serial)
		}
		if math.IsNaN(first) {
			first = res.Checksum
		} else if res.Checksum != first {
			t.Fatalf("%s checksum %v, other transports %v (must be bit-identical)", kind, res.Checksum, first)
		}
	}
}

// TestStencilBlankHaloParity checks that a timing-only stencil run,
// which sends blank halos, is indistinguishable in simulated time and
// event order from a verified run that carries real grid data, on every
// transport and at every shard count.
func TestStencilBlankHaloParity(t *testing.T) {
	for _, kind := range comm.Kinds() {
		for _, shards := range []int{1, 2} {
			var res [2]*stencil.Result
			for i, verify := range []bool{false, true} {
				r, err := stencil.Run(stencil.Config{
					Machine: machineFor(t, kind), Transport: kind,
					Grid: 48, Iters: 3, PX: 2, PY: 2, Verify: verify, Shards: shards,
				})
				if err != nil {
					t.Fatalf("%s shards=%d verify=%v: %v", kind, shards, verify, err)
				}
				res[i] = r
			}
			if res[0].Elapsed != res[1].Elapsed || res[0].EventDigest != res[1].EventDigest {
				t.Errorf("%s shards=%d: blank halos took %v (digest %#x), real halos %v (digest %#x)",
					kind, shards, res[0].Elapsed, res[0].EventDigest, res[1].Elapsed, res[1].EventDigest)
			}
		}
	}
}

func TestSptrsvParityAcrossTransports(t *testing.T) {
	m, err := spmat.Generate(spmat.Params{N: 240, MeanSnode: 8, Fill: 1.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SolveSerial(sptrsv.Rhs(m.N))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range comm.Kinds() {
		res, err := sptrsv.Run(sptrsv.Config{
			Machine: machineFor(t, kind), Transport: kind,
			Matrix: m, Ranks: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := range want {
			rel := math.Abs(res.X[i]-want[i]) / math.Max(math.Abs(want[i]), 1)
			if rel > 1e-9 {
				t.Fatalf("%s: x[%d] = %v, serial %v", kind, i, res.X[i], want[i])
			}
		}
	}
}

func TestHashtableParityAcrossTransports(t *testing.T) {
	// Collision counts are order-invariant (k claimants of one home
	// slot always produce k-1 overflows), so every transport must
	// agree exactly; shard contents are verified inside Run.
	var want int64 = -1
	for _, kind := range comm.Kinds() {
		res, err := hashtable.Run(hashtable.Config{
			Machine: machineFor(t, kind), Transport: kind,
			Ranks: 4, TotalInserts: 400, Blocks: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if want < 0 {
			want = res.Collisions
			continue
		}
		if res.Collisions != want {
			t.Fatalf("%s collisions = %d, others = %d", kind, res.Collisions, want)
		}
	}
}
