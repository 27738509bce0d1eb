package conformance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"msgroofline/internal/comm"
	"msgroofline/internal/hashtable"
	"msgroofline/internal/machine"
	"msgroofline/internal/mpi"
	"msgroofline/internal/runtime"
	"msgroofline/internal/shmem"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/stencil"
)

// chaos is the fuzzing configuration of one run: the world's disorder
// (perturbation, faults and the ordering switch; see
// Options.Unordered) and its shards, the window worker parallelism (0
// means 1), under which output must be invariant. The zero value is a
// clean (reference) run.
type chaos struct {
	runtime.Chaos
	shards int
}

// outcome is the semantic fingerprint of one run: fp is compared
// exactly against the reference, floats with relative tolerance
// (accumulation order legally varies under perturbation). digest is
// the engine's event-order fingerprint; it legally varies across
// perturbation seeds, so the reference oracles ignore it, and the
// shard-determinism suite requires it equal across shard counts
// under identical chaos.
type outcome struct {
	fp     string
	floats []float64
	digest uint64
}

// relTol bounds the relative drift allowed in float outcomes.
const relTol = 1e-9

// kcase is one kernel x transport cell of the conformance matrix.
// Each case builds exactly one world, so a recorded perturbation
// trace — one decision stream per node-group engine, flattened with
// Perturbation.StreamLens — maps one-to-one onto the case's event
// allocations.
type kcase struct {
	kernel    string
	transport comm.Kind
	run       func(ch chaos) (outcome, error)
}

// testMatrix is the shared sparse triangular system solved by every
// sptrsv case. It is generated once and only read afterwards, so
// parallel seed jobs may share it.
var (
	matrixOnce sync.Once
	matrix     *spmat.SupTri
)

func testMatrix() *spmat.SupTri {
	matrixOnce.Do(func() {
		m, err := spmat.Generate(spmat.Params{N: 300, MeanSnode: 8, Fill: 1.2, Seed: 7})
		if err != nil {
			panic(fmt.Sprintf("conformance: %v", err))
		}
		matrix = m
	})
	return matrix
}

// workloadMachine picks the conformance machine for a workload cell:
// a GPU platform for the device-driven stacks (shmem, stream-
// triggered), a CPU platform (with notified access and memory
// channels calibrated) otherwise.
func workloadMachine(kind comm.Kind, cpu, gpu *machine.Config) *machine.Config {
	if kind == comm.Shmem || kind == comm.StreamTriggered {
		return gpu
	}
	return cpu
}

// allCases enumerates the full conformance matrix: the three paper
// workloads on every transport they support (each cell one table row
// against the unified internal/comm kernel), plus four micro-kernels
// targeting the semantics the workloads cannot isolate (message
// ordering with wildcards, put-with-signal visibility and quiet
// ordering, stream-dependency firing order, and channel FIFO
// delivery).
func allCases() []kcase {
	return []kcase{
		{"stencil", comm.TwoSided, stencilRun(comm.TwoSided)},
		{"stencil", comm.OneSided, stencilRun(comm.OneSided)},
		{"stencil", comm.Notified, stencilRun(comm.Notified)},
		{"stencil", comm.Shmem, stencilRun(comm.Shmem)},
		{"stencil", comm.StreamTriggered, stencilRun(comm.StreamTriggered)},
		{"stencil", comm.MemChannel, stencilRun(comm.MemChannel)},
		{"sptrsv", comm.TwoSided, sptrsvRun(comm.TwoSided)},
		{"sptrsv", comm.OneSided, sptrsvRun(comm.OneSided)},
		{"sptrsv", comm.Shmem, sptrsvRun(comm.Shmem)},
		{"sptrsv", comm.Notified, sptrsvRun(comm.Notified)},
		{"sptrsv", comm.StreamTriggered, sptrsvRun(comm.StreamTriggered)},
		{"sptrsv", comm.MemChannel, sptrsvRun(comm.MemChannel)},
		{"hashtable", comm.TwoSided, hashtableRun(comm.TwoSided)},
		{"hashtable", comm.OneSided, hashtableRun(comm.OneSided)},
		{"hashtable", comm.Notified, hashtableRun(comm.Notified)},
		{"hashtable", comm.Shmem, hashtableRun(comm.Shmem)},
		{"hashtable", comm.StreamTriggered, hashtableRun(comm.StreamTriggered)},
		{"hashtable", comm.MemChannel, hashtableRun(comm.MemChannel)},
		{"msgorder", comm.TwoSided, msgorderRun},
		{"putsignal", comm.Shmem, putsignalRun},
		streamOrder.kcase(),
		chanFIFO.kcase(),
	}
}

// stencilRun checks the halo-exchange workload: the verified-mode
// checksum is pure dataflow (every rank waits for all halos before
// stepping), so it must be bit-identical under any legal schedule.
func stencilRun(kind comm.Kind) func(chaos) (outcome, error) {
	return func(ch chaos) (outcome, error) {
		res, err := stencil.Run(stencil.Config{
			Machine:   workloadMachine(kind, machine.PerlmutterCPU, machine.PerlmutterGPU),
			Transport: kind,
			Grid:      24, Iters: 3, PX: 2, PY: 2, Verify: true,
			Shards: ch.shards, Chaos: ch.Chaos,
		})
		if err != nil {
			return outcome{}, err
		}
		return outcome{fp: fmt.Sprintf("checksum=%016x", math.Float64bits(res.Checksum)), digest: res.EventDigest}, nil
	}
}

// sptrsvRun checks the triangular-solve DAG: the assembled solution
// must match the clean run within relTol (contribution accumulation
// order legally varies, so bits may differ).
func sptrsvRun(kind comm.Kind) func(chaos) (outcome, error) {
	return func(ch chaos) (outcome, error) {
		res, err := sptrsv.Run(sptrsv.Config{
			Machine:   workloadMachine(kind, machine.FrontierCPU, machine.SummitGPU),
			Transport: kind,
			Matrix:    testMatrix(), Ranks: 4,
			Shards: ch.shards, Chaos: ch.Chaos,
		})
		if err != nil {
			return outcome{}, err
		}
		return outcome{floats: res.X, digest: res.EventDigest}, nil
	}
}

// hashtableRun checks the distributed hash table: the runs verify the
// shard contents internally (every key exactly once, no aliens), and
// the collision count is order-invariant (k claimants of one home
// slot always produce k-1 overflows).
func hashtableRun(kind comm.Kind) func(chaos) (outcome, error) {
	return func(ch chaos) (outcome, error) {
		res, err := hashtable.Run(hashtable.Config{
			Machine:   workloadMachine(kind, machine.PerlmutterCPU, machine.PerlmutterGPU),
			Transport: kind,
			Ranks:     4, TotalInserts: 400, Blocks: 4,
			Shards: ch.shards, Chaos: ch.Chaos,
		})
		if err != nil {
			return outcome{}, err
		}
		return outcome{fp: fmt.Sprintf("collisions=%d", res.Collisions), digest: res.EventDigest}, nil
	}
}

const (
	moSenderCount = 2  // ranks 0 and 2 send, rank 1 receives
	moTags        = 4  // tag values cycled per sender
	moPerStream   = 10 // messages per (sender, tag) stream
)

func moEncode(src, tag, k int) []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b[0:], uint64(src))
	binary.LittleEndian.PutUint64(b[8:], uint64(tag))
	binary.LittleEndian.PutUint64(b[16:], uint64(k))
	return b
}

func moDecode(b []byte) (src, tag, k int) {
	return int(binary.LittleEndian.Uint64(b[0:])),
		int(binary.LittleEndian.Uint64(b[8:])),
		int(binary.LittleEndian.Uint64(b[16:]))
}

// msgorderRun is the MPI matching-semantics oracle. Ranks 0 and 2
// each send moTags interleaved streams of numbered messages to rank
// 1, which receives first through exact-signature posts and then a
// wildcard drain. MPI's non-overtaking rule requires every (source,
// tag) stream to complete in send order regardless of how the fabric
// reorders arrivals; afterwards every queue must have drained.
func msgorderRun(ch chaos) (outcome, error) {
	c, err := mpi.NewCommSharded(machine.PerlmutterCPU, 3, ch.shards)
	if err != nil {
		return outcome{}, err
	}
	c.World().SetChaos(ch.Chaos)

	senders := []int{0, 2}
	total := moSenderCount * moTags * moPerStream
	streams := make(map[[2]int][]int)
	var oracleErr error
	err = c.Launch(func(r *mpi.Rank) {
		if r.Rank() != 1 {
			for k := 0; k < moPerStream; k++ {
				for t := 0; t < moTags; t++ {
					r.Send(1, t, moEncode(r.Rank(), t, k))
				}
			}
			return
		}
		// Exact-signature receives for the head of every stream,
		// posted in scrambled order before the wildcard drain.
		var reqs []*mpi.Request
		for t := moTags - 1; t >= 0; t-- {
			for _, s := range senders {
				reqs = append(reqs, r.Irecv(s, t))
			}
		}
		r.Waitall(reqs)
		for i := len(reqs); i < total; i++ {
			reqs = append(reqs, r.Recv(mpi.AnySource, mpi.AnyTag))
		}
		for _, q := range reqs {
			src, tag, k := moDecode(q.Data)
			if src != q.Src || tag != q.Tag {
				oracleErr = fmt.Errorf(
					"msgorder: payload from (src %d, tag %d) matched as (src %d, tag %d)",
					src, tag, q.Src, q.Tag)
				return
			}
			streams[[2]int{src, tag}] = append(streams[[2]int{src, tag}], k)
		}
		for key, ks := range streams {
			for i, k := range ks {
				if k != i {
					oracleErr = fmt.Errorf(
						"msgorder: non-overtaking violated on stream (src %d, tag %d): got order %v",
						key[0], key[1], ks)
					return
				}
			}
		}
		if u, p, o := r.PendingUnexpected(), r.PendingPosted(), r.PendingOutOfOrder(); u != 0 || p != 0 || o != 0 {
			oracleErr = fmt.Errorf(
				"msgorder: queues not drained: unexpected=%d posted=%d outOfOrder=%d", u, p, o)
		}
	})
	if err != nil {
		return outcome{}, err
	}
	if oracleErr != nil {
		return outcome{}, oracleErr
	}
	// Fingerprint the per-stream completion orders in a fixed key
	// order; any legal schedule must produce the identity.
	keys := make([][2]int, 0, len(streams))
	for key := range streams {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var fp bytes.Buffer
	for _, key := range keys {
		fmt.Fprintf(&fp, "%d/%d:%v;", key[0], key[1], streams[key])
	}
	return outcome{fp: fp.String(), digest: c.Digest()}, nil
}

// putsignalRun is the SHMEM memory-ordering oracle on a 4-PE ring:
// put-with-signal visibility (when the receiver observes the signal
// value, every payload byte must already be in its heap), quiet
// semantics (Outstanding drains to zero), and quiet+barrier ordering
// (data put before a Quiet is globally visible after the barrier).
func putsignalRun(ch chaos) (outcome, error) {
	const (
		pes       = 4
		rounds    = 6
		slotBytes = 64
	)
	// Heap: one data slot and one signal per round (no slot reuse —
	// the ring is one-directional, so a reused slot could legally be
	// overwritten by a fast upstream neighbor), plus a quiet-phase
	// slot.
	sigBase := rounds * slotBytes
	quietOff := sigBase + rounds*8
	heap := quietOff + slotBytes

	j, err := shmem.NewJobSharded(machine.SummitGPU, machine.GPUShmem, pes, heap, sigBase, ch.shards)
	if err != nil {
		return outcome{}, err
	}
	j.World().SetChaos(ch.Chaos)

	pattern := func(src, round int) []byte {
		b := make([]byte, slotBytes)
		for i := range b {
			b[i] = byte(src*31 + round*7 + i)
		}
		return b
	}
	oracleErrs := make([]error, pes)
	err = j.Launch(func(c *shmem.Ctx) {
		me := c.MyPE()
		right := (me + 1) % pes
		left := (me - 1 + pes) % pes
		fail := func(format string, args ...any) {
			if oracleErrs[me] == nil {
				oracleErrs[me] = fmt.Errorf(format, args...)
			}
		}
		for r := 0; r < rounds; r++ {
			c.PutSignalNBI(right, r*slotBytes, pattern(me, r), sigBase+r*8, uint64(r+1))
			c.WaitUntilAll([]int{sigBase + r*8}, uint64(r+1))
			got := c.PE().Heap()[r*slotBytes : (r+1)*slotBytes]
			if !bytes.Equal(got, pattern(left, r)) {
				fail("putsignal: round %d signal visible before payload from PE %d", r, left)
				return
			}
		}
		// Quiet: a plain put must be remotely complete after Quiet.
		c.PutNBI(right, quietOff, pattern(me, rounds))
		c.Quiet()
		if n := c.PE().Outstanding(); n != 0 {
			fail("putsignal: %d puts still outstanding after Quiet", n)
			return
		}
		c.Barrier()
		got := c.PE().Heap()[quietOff : quietOff+slotBytes]
		if !bytes.Equal(got, pattern(left, rounds)) {
			fail("putsignal: quiet-put from PE %d not visible after barrier", left)
		}
	})
	if err != nil {
		return outcome{}, err
	}
	for _, oe := range oracleErrs {
		if oe != nil {
			return outcome{}, oe
		}
	}
	h := fnv.New64a()
	for pe := 0; pe < pes; pe++ {
		h.Write(j.PE(pe).Heap())
	}
	return outcome{fp: fmt.Sprintf("heap=%016x", h.Sum64()), digest: j.Digest()}, nil
}

// slotted is a slotted-delivery protocol kernel on a rank pair: rank
// 0 delivers slots numbered payloads of slotBytes each to rank 1 and
// quiets, and rank 1 consumes every slot. inspect is the kernel's
// ordering oracle, read from the transport after the run; every
// payload must also land uncorrupted in its slot.
type slotted struct {
	name             string
	machine          *machine.Config
	kind             comm.Kind
	slots, slotBytes int
	inspect          func(tr comm.Transport, slots int) error
}

// streamOrder is the stream-triggered dependency oracle on a GPU pair:
// rank 0's fused put-with-signal descriptors ride its device stream,
// and no descriptor may fire before its stream dependency resolved
// (At >= Ready, and Ready >= previous Done) — the contract
// Chaos.Unordered deliberately breaks for mutation testing.
var streamOrder = slotted{
	name: "streamorder", machine: machine.PerlmutterGPU, kind: comm.StreamTriggered,
	slots: 12, slotBytes: 32,
	inspect: func(tr comm.Transport, slots int) error {
		ins, ok := tr.(comm.StreamInspector)
		if !ok {
			return fmt.Errorf("transport does not expose its device stream")
		}
		s := ins.Stream(0)
		if s.Fired() != slots {
			return fmt.Errorf("stream fired %d descriptors, want %d", s.Fired(), slots)
		}
		// Ready is at or after the predecessor's completion, so this also
		// catches a descriptor that fired before its predecessor completed.
		if e := s.Early(); e != nil {
			return fmt.Errorf("descriptor %d fired at %v before its stream dependency resolved at %v",
				e.Index, e.At, e.Ready)
		}
		return nil
	},
}

// chanFIFO is the memory-channel FIFO oracle on a CPU pair: rank 0's
// writes stream down its channel to rank 1. Fault injection legally
// reorders the wire (spikes and drop-retransmits overtake); the
// channel's resequencer must still apply the writes strictly in
// sequence order, so its online FIFO check must report every write
// applied and none out of order — the contract Chaos.Unordered
// deliberately breaks for mutation testing.
var chanFIFO = slotted{
	name: "chanfifo", machine: machine.PerlmutterCPU, kind: comm.MemChannel,
	slots: 16, slotBytes: 24,
	inspect: func(tr comm.Transport, slots int) error {
		ins, ok := tr.(comm.ChannelInspector)
		if !ok {
			return fmt.Errorf("transport does not expose its channels")
		}
		var c *runtime.Channel
		for _, oc := range ins.Channels(0) {
			if oc.Dst() == 1 {
				c = oc
			}
		}
		if c == nil {
			return fmt.Errorf("rank 0 opened no channel to rank 1")
		}
		if c.Sent() != uint64(slots) {
			return fmt.Errorf("channel carried %d writes, want %d", c.Sent(), slots)
		}
		applied, misordered, seq, pos := c.Applied()
		if misordered {
			return fmt.Errorf("FIFO violated: write %d applied at position %d", seq, pos)
		}
		if applied != uint64(slots) {
			return fmt.Errorf("channel applied %d writes, want %d", applied, slots)
		}
		return nil
	},
}

// kcase is k's cell of the conformance matrix.
func (k slotted) kcase() kcase { return kcase{k.name, k.kind, k.run} }

// run runs kernel k: the deliveries, then its oracle, then the payload
// check, fingerprinting the received slots.
func (k slotted) run(ch chaos) (outcome, error) {
	pattern := func(slot int) []byte {
		b := make([]byte, k.slotBytes)
		for i := range b {
			b[i] = byte(slot*17 + i + 3)
		}
		return b
	}
	tr, err := comm.New(comm.Spec{
		Machine: k.machine, Kind: k.kind, Ranks: 2,
		StreamSlots: []int{0, k.slots}, SlotBytes: k.slotBytes,
		Shards: ch.shards, Chaos: ch.Chaos, NoTrace: true,
	})
	if err != nil {
		return outcome{}, err
	}
	got := make([][]byte, k.slots)
	err = tr.Launch(func(ep comm.Endpoint) {
		switch ep.Rank() {
		case 0:
			for s := 0; s < k.slots; s++ {
				ep.Deliver(1, s, pattern(s))
			}
			ep.Quiet()
		case 1:
			for n := 0; n < k.slots; n++ {
				slot, data := ep.WaitAnySlot()
				got[slot] = append([]byte(nil), data[:k.slotBytes]...)
			}
		}
	})
	if err != nil {
		return outcome{}, err
	}
	if err := k.inspect(tr, k.slots); err != nil {
		return outcome{}, fmt.Errorf("%s: %w", k.name, err)
	}
	h := fnv.New64a()
	for s, b := range got {
		if !bytes.Equal(b, pattern(s)) {
			return outcome{}, fmt.Errorf("%s: slot %d payload corrupted", k.name, s)
		}
		h.Write(b)
	}
	return outcome{fp: fmt.Sprintf("slots=%016x", h.Sum64()), digest: tr.Digest()}, nil
}
