package hashtable

import (
	"encoding/binary"
	"fmt"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
)

// triplet encoding for the two-sided protocol: (ID, elem, pos), three
// 8-byte words (Table II: Words/Msg = 3).
func encodeTriplet(id int, elem uint64, pos int) []byte {
	out := make([]byte, 24)
	binary.LittleEndian.PutUint64(out[0:], uint64(id))
	binary.LittleEndian.PutUint64(out[8:], elem)
	binary.LittleEndian.PutUint64(out[16:], uint64(pos))
	return out
}

func decodeTriplet(b []byte) (id int, elem uint64, pos int) {
	return int(binary.LittleEndian.Uint64(b[0:])),
		binary.LittleEndian.Uint64(b[8:]),
		int(binary.LittleEndian.Uint64(b[16:]))
}

// Run executes the insert phase once on the transport named by
// cfg.Transport. The kernel is written once; the paper's two insert
// designs are selected by the transport's capability:
//
//   - atomics-capable transports (one-sided RMA, notified access,
//     shmem) CAS the home slot, claim an overflow slot with
//     fetch-and-add on collision, and write it with a second CAS —
//     per-insert flush_local where the protocol requires it, one
//     synchronization for the whole phase;
//   - two-sided MPI has no remote atomics, so every insert is
//     broadcast as a triplet to all other ranks (BcastPut); each
//     rank receives P-1 messages per round (CollectPuts) and the
//     owner applies the update locally.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g := newGeometry(&cfg)
	t, err := comm.New(comm.Spec{
		Machine: cfg.Machine, Kind: cfg.Transport, Ranks: cfg.Ranks,
		SharedBytes: g.heapBytes(), Shards: cfg.Shards,
		Chaos: cfg.Chaos,
	})
	if err != nil {
		return nil, fmt.Errorf("hashtable %s: %w", cfg.Transport, err)
	}
	useAtomics := t.Caps().Atomics
	shards := make([]shard, cfg.Ranks)
	if !useAtomics {
		for rk := range shards {
			shards[rk] = shard{
				table:    make([]uint64, g.slots),
				overflow: make([]uint64, g.overflow),
			}
		}
	}
	// collisions is counted per rank so concurrent node groups of the
	// coupled engine never share a counter; summed after Launch.
	collisions := make([]int64, cfg.Ranks)
	insertLocal := func(rk int, elem uint64, pos int) {
		s := &shards[rk]
		if s.table[pos] == 0 {
			s.table[pos] = elem
			return
		}
		collisions[rk]++
		s.overflow[s.nextFree] = elem
		s.nextFree++
	}
	err = t.Launch(func(ep comm.Endpoint) {
		me := ep.Rank()
		base := me * g.perRank
		if !useAtomics {
			for i := 0; i < g.perRank; i++ {
				key := keyFor(base + i)
				hr, slot := g.home(key)
				ep.BcastPut(encodeTriplet(hr, key, slot))
				if hr == me {
					insertLocal(me, key, slot)
				}
				for _, tri := range ep.CollectPuts() {
					id, elem, pos := decodeTriplet(tri)
					if id == me {
						insertLocal(me, elem, pos)
					}
				}
			}
			return
		}
		blocks := ep.Lanes(cfg.Blocks)
		if blocks > g.perRank {
			blocks = g.perRank
		}
		if cfg.Machine.Kind == machine.GPU && cfg.Machine.GPU != nil {
			ep.Compute(cfg.Machine.GPU.KernelLaunch)
		}
		ep.ForkJoin(blocks, func(lane comm.Endpoint, bi int) {
			for i := bi; i < g.perRank; i += blocks {
				key := keyFor(base + i)
				hr, slot := g.home(key)
				old := lane.CAS(hr, offTable+8*slot, 0, key)
				if old != 0 {
					collisions[me]++
					idx := lane.FetchAdd(hr, offNextFree, 1)
					prev := lane.CAS(hr, g.offOverflow()+8*int(idx), 0, key)
					if prev != 0 {
						panic("hashtable: claimed overflow slot already occupied")
					}
				}
				lane.FlushLocal(hr)
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("hashtable %s: %w", cfg.Transport, err)
	}
	var atomics int64
	if useAtomics {
		for rk := range shards {
			shards[rk] = shardFromBytes(g, t.SharedBytes(rk))
		}
		atomics = t.AtomicCount()
	}
	if err := verifyShards(g, shards); err != nil {
		return nil, err
	}
	rec := t.Recorder()
	if useAtomics {
		// One synchronization for the whole insert phase (Table II:
		// 1e6 messages per sync).
		rec.Sync()
	}
	var totalCollisions int64
	for _, n := range collisions {
		totalCollisions += n
	}
	res := finishResult(&cfg, t.Elapsed(), rec.Summarize(t.Elapsed()), atomics, totalCollisions)
	res.EventDigest = t.Digest()
	return res, nil
}

func shardFromBytes(g geometry, heap []byte) shard {
	s := shard{
		table:    make([]uint64, g.slots),
		overflow: make([]uint64, g.overflow),
		nextFree: binary.LittleEndian.Uint64(heap[offNextFree:]),
	}
	for i := 0; i < g.slots; i++ {
		s.table[i] = binary.LittleEndian.Uint64(heap[offTable+8*i:])
	}
	off := g.offOverflow()
	for i := 0; i < g.overflow; i++ {
		s.overflow[i] = binary.LittleEndian.Uint64(heap[off+8*i:])
	}
	return s
}
