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
	"msgroofline/internal/netsim"
	"msgroofline/internal/runtime"
	"msgroofline/internal/shmem"
	"msgroofline/internal/sim"
	"msgroofline/internal/spmat"
	"msgroofline/internal/sptrsv"
	"msgroofline/internal/stencil"
)

// Transport names used by the case table and Options filters.
const (
	TwoSided   = "two-sided"
	OneSided   = "one-sided"
	Shmem      = "shmem"
	Notified   = "notified"
	StreamTrig = "stream-triggered"
	MemChan    = "memchannel"
)

// chaos bundles the fuzzing configuration of one run. The zero value
// is a clean (reference) run.
type chaos struct {
	perturb *sim.Perturbation
	faults  *netsim.Faults
	// shards is the engine shard count recorded on the workload's
	// world (0 means 1); output must be invariant under it.
	shards int
	// unordered disables the MPI non-overtaking resequencer in the
	// micro-kernels that build their own communicator (mutation knob).
	unordered bool
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
	transport string
	run       func(ch chaos) (outcome, error)
}

func mach(name string) *machine.Config {
	cfg, err := machine.Get(name)
	if err != nil {
		panic(fmt.Sprintf("conformance: %v", err))
	}
	return cfg
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
func workloadMachine(kind comm.Kind, cpu, gpu string) *machine.Config {
	if kind == comm.Shmem || kind == comm.StreamTriggered {
		return mach(gpu)
	}
	return mach(cpu)
}

// allCases enumerates the full conformance matrix: the three paper
// workloads on every transport they support (each cell one table row
// against the unified internal/comm kernel), plus five micro-kernels
// targeting the semantics the workloads cannot isolate (message
// ordering with wildcards, collective correctness, put-with-signal
// visibility and quiet ordering, stream-dependency firing order, and
// channel FIFO delivery).
func allCases() []kcase {
	return []kcase{
		{"stencil", TwoSided, stencilRun(TwoSided)},
		{"stencil", OneSided, stencilRun(OneSided)},
		{"stencil", Notified, stencilRun(Notified)},
		{"stencil", Shmem, stencilRun(Shmem)},
		{"stencil", StreamTrig, stencilRun(StreamTrig)},
		{"stencil", MemChan, stencilRun(MemChan)},
		{"sptrsv", TwoSided, sptrsvRun(TwoSided)},
		{"sptrsv", OneSided, sptrsvRun(OneSided)},
		{"sptrsv", Shmem, sptrsvRun(Shmem)},
		{"sptrsv", Notified, sptrsvRun(Notified)},
		{"sptrsv", StreamTrig, sptrsvRun(StreamTrig)},
		{"sptrsv", MemChan, sptrsvRun(MemChan)},
		{"hashtable", TwoSided, hashtableRun(TwoSided)},
		{"hashtable", OneSided, hashtableRun(OneSided)},
		{"hashtable", Notified, hashtableRun(Notified)},
		{"hashtable", Shmem, hashtableRun(Shmem)},
		{"hashtable", StreamTrig, hashtableRun(StreamTrig)},
		{"hashtable", MemChan, hashtableRun(MemChan)},
		{"msgorder", TwoSided, msgorderRun},
		{"coll4", TwoSided, collectivesRun(4)},
		{"coll5", TwoSided, collectivesRun(5)},
		{"putsignal", Shmem, putsignalRun},
		{"streamorder", StreamTrig, streamorderRun},
		{"chanfifo", MemChan, chanfifoRun},
	}
}

// stencilRun checks the halo-exchange workload: the verified-mode
// checksum is pure dataflow (every rank waits for all halos before
// stepping), so it must be bit-identical under any legal schedule.
func stencilRun(transport string) func(chaos) (outcome, error) {
	return func(ch chaos) (outcome, error) {
		kind, err := comm.ParseKind(transport)
		if err != nil {
			return outcome{}, err
		}
		res, err := stencil.Run(stencil.Config{
			Machine:   workloadMachine(kind, "perlmutter-cpu", "perlmutter-gpu"),
			Transport: kind,
			Grid:      24, Iters: 3, PX: 2, PY: 2, Verify: true,
			Shards:  ch.shards,
			Perturb: ch.perturb, Faults: ch.faults,
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
func sptrsvRun(transport string) func(chaos) (outcome, error) {
	return func(ch chaos) (outcome, error) {
		kind, err := comm.ParseKind(transport)
		if err != nil {
			return outcome{}, err
		}
		res, err := sptrsv.Run(sptrsv.Config{
			Machine:   workloadMachine(kind, "frontier-cpu", "summit-gpu"),
			Transport: kind,
			Matrix:    testMatrix(), Ranks: 4,
			Shards:  ch.shards,
			Perturb: ch.perturb, Faults: ch.faults,
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
func hashtableRun(transport string) func(chaos) (outcome, error) {
	return func(ch chaos) (outcome, error) {
		kind, err := comm.ParseKind(transport)
		if err != nil {
			return outcome{}, err
		}
		res, err := hashtable.Run(hashtable.Config{
			Machine:   workloadMachine(kind, "perlmutter-cpu", "perlmutter-gpu"),
			Transport: kind,
			Ranks:     4, TotalInserts: 400, Blocks: 4,
			Shards:  ch.shards,
			Perturb: ch.perturb, Faults: ch.faults,
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
	c, err := mpi.NewCommSharded(mach("perlmutter-cpu"), 3, ch.shards)
	if err != nil {
		return outcome{}, err
	}
	if ch.perturb != nil {
		c.World().SetPerturbation(ch.perturb)
	}
	if ch.faults != nil {
		c.World().Inst.Net.SetFaults(ch.faults)
	}
	c.SetDebugUnordered(ch.unordered)

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

func collVec(r, n int) []byte {
	b := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		// Small integers: float64 addition over them is exact and
		// associative, so recursive doubling must be byte-equal to
		// the sequential reference.
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(float64(r*16+i+1)))
	}
	return b
}

// collectivesRun checks every collective against an in-process
// sequential reference on p ranks (p=4 exercises the recursive
// doubling / XOR schedules, p=5 the tree+shift fallbacks), with a
// Barrier between phases so barrier traffic interleaves collective
// traffic under fuzzing.
func collectivesRun(p int) func(chaos) (outcome, error) {
	return func(ch chaos) (outcome, error) {
		c, err := mpi.NewCommSharded(mach("perlmutter-cpu"), p, ch.shards)
		if err != nil {
			return outcome{}, err
		}
		if ch.perturb != nil {
			c.World().SetPerturbation(ch.perturb)
		}
		if ch.faults != nil {
			c.World().Inst.Net.SetFaults(ch.faults)
		}
		c.SetDebugUnordered(ch.unordered)

		const vn = 8
		// Sequential references.
		wantSum := make([]float64, vn)
		for r := 0; r < p; r++ {
			for i := 0; i < vn; i++ {
				wantSum[i] += float64(r*16 + i + 1)
			}
		}
		var wantGather []byte
		for r := 0; r < p; r++ {
			wantGather = append(wantGather, collVec(r, vn)...)
		}

		oracleErrs := make([]error, p)
		digests := make([][]byte, p)
		err = c.Launch(func(r *mpi.Rank) {
			me := r.Rank()
			fail := func(format string, args ...any) {
				if oracleErrs[me] == nil {
					oracleErrs[me] = fmt.Errorf(format, args...)
				}
			}
			mine := collVec(me, vn)
			var all []byte

			sum := r.Allreduce(mine, mpi.SumFloat64)
			for i := 0; i < vn; i++ {
				if got := f64at(sum, i); got != wantSum[i] {
					fail("coll: Allreduce[%d] = %v, want %v", i, got, wantSum[i])
				}
			}
			all = append(all, sum...)
			r.Barrier()

			bc := r.Bcast(p-1, collVec(p-1, vn))
			if !bytes.Equal(bc, collVec(p-1, vn)) {
				fail("coll: Bcast payload corrupted")
			}
			all = append(all, bc...)
			r.Barrier()

			ag := r.Allgather(mine)
			if !bytes.Equal(ag, wantGather) {
				fail("coll: Allgather mismatch")
			}
			all = append(all, ag...)
			r.Barrier()

			blocks := make([][]byte, p)
			for d := 0; d < p; d++ {
				blocks[d] = collVec(me*p+d, vn)
			}
			a2a := r.Alltoall(blocks)
			for d := 0; d < p; d++ {
				if !bytes.Equal(a2a[d], collVec(d*p+me, vn)) {
					fail("coll: Alltoall block from %d mismatch", d)
				}
				all = append(all, a2a[d]...)
			}
			r.Barrier()

			red := r.Reduce(1, mine, mpi.SumFloat64)
			if me == 1 {
				for i := 0; i < vn; i++ {
					if got := f64at(red, i); got != wantSum[i] {
						fail("coll: Reduce[%d] = %v, want %v", i, got, wantSum[i])
					}
				}
				all = append(all, red...)
			}
			r.Barrier()

			g := r.Gather(0, mine)
			if me == 0 {
				if !bytes.Equal(g, wantGather) {
					fail("coll: Gather mismatch")
				}
				all = append(all, g...)
			}
			sc := r.Scatter(2, scatterBlocks(p, vn))
			if !bytes.Equal(sc, collVec(2*p+me, vn)) {
				fail("coll: Scatter block mismatch")
			}
			all = append(all, sc...)
			r.Barrier()

			if u, po, o := r.PendingUnexpected(), r.PendingPosted(), r.PendingOutOfOrder(); u != 0 || po != 0 || o != 0 {
				fail("coll: queues not drained: unexpected=%d posted=%d outOfOrder=%d", u, po, o)
			}
			digests[me] = all
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
		for _, d := range digests {
			h.Write(d)
		}
		return outcome{fp: fmt.Sprintf("coll=%016x", h.Sum64()), digest: c.Digest()}, nil
	}
}

func f64at(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// scatterBlocks is the block set rank 2 scatters: block d holds
// collVec(2*p+d), so rank me must receive collVec(2*p+me).
func scatterBlocks(p, vn int) [][]byte {
	blocks := make([][]byte, p)
	for d := 0; d < p; d++ {
		blocks[d] = collVec(2*p+d, vn)
	}
	return blocks
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

	j, err := shmem.NewJobSharded(mach("summit-gpu"), pes, heap, ch.shards)
	if err != nil {
		return outcome{}, err
	}
	if ch.perturb != nil {
		j.World().SetPerturbation(ch.perturb)
	}
	if ch.faults != nil {
		j.World().Inst.Net.SetFaults(ch.faults)
	}

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

const (
	soSlots     = 12
	soSlotBytes = 32
)

// streamorderRun is the stream-triggered dependency oracle on a GPU
// pair: rank 0 enqueues soSlots fused put-with-signal descriptors on
// its device stream and quiets, rank 1 consumes every slot. The
// oracle reads the stream's enqueue/ready/fire log afterwards and
// requires that no descriptor fired before its stream dependency
// resolved (At >= Ready) nor before its predecessor completed
// (At >= previous Done) — the contract Spec.DebugUnordered
// deliberately breaks for mutation testing. Payloads must land
// uncorrupted in their slots regardless.
func streamorderRun(ch chaos) (outcome, error) {
	pattern := func(slot int) []byte {
		b := make([]byte, soSlotBytes)
		for i := range b {
			b[i] = byte(slot*17 + i + 3)
		}
		return b
	}
	tr, err := comm.New(comm.Spec{
		Machine: mach("perlmutter-gpu"), Kind: comm.StreamTriggered, Ranks: 2,
		StreamSlots: []int{0, soSlots}, SlotBytes: soSlotBytes,
		Shards: ch.shards, Perturb: ch.perturb, Faults: ch.faults,
		NoTrace: true, DebugUnordered: ch.unordered,
	})
	if err != nil {
		return outcome{}, err
	}
	got := make([][]byte, soSlots)
	err = tr.Launch(func(ep comm.Endpoint) {
		switch ep.Rank() {
		case 0:
			for s := 0; s < soSlots; s++ {
				ep.Deliver(1, s, pattern(s))
			}
			ep.Quiet()
		case 1:
			for n := 0; n < soSlots; n++ {
				slot, data := ep.WaitAnySlot()
				got[slot] = append([]byte(nil), data[:soSlotBytes]...)
			}
		}
	})
	if err != nil {
		return outcome{}, err
	}
	ins, ok := tr.(comm.StreamInspector)
	if !ok {
		return outcome{}, fmt.Errorf("streamorder: transport does not expose its device stream")
	}
	log := ins.Stream(0).Log()
	if len(log) != soSlots {
		return outcome{}, fmt.Errorf("streamorder: stream logged %d descriptors, want %d", len(log), soSlots)
	}
	for i, f := range log {
		if f.At < f.Ready {
			return outcome{}, fmt.Errorf(
				"streamorder: descriptor %d fired at %v before its stream dependency resolved at %v",
				i, f.At, f.Ready)
		}
		if i > 0 && f.At < log[i-1].Done {
			return outcome{}, fmt.Errorf(
				"streamorder: descriptor %d fired at %v before predecessor completed at %v",
				i, f.At, log[i-1].Done)
		}
	}
	h := fnv.New64a()
	for s, b := range got {
		if !bytes.Equal(b, pattern(s)) {
			return outcome{}, fmt.Errorf("streamorder: slot %d payload corrupted", s)
		}
		h.Write(b)
	}
	return outcome{fp: fmt.Sprintf("stream=%016x", h.Sum64()), digest: tr.Digest()}, nil
}

const (
	cfSlots     = 16
	cfSlotBytes = 24
)

// chanfifoRun is the memory-channel FIFO oracle on a CPU pair: rank 0
// streams cfSlots numbered writes down its channel to rank 1 and
// drains it. Fault injection legally reorders the wire (spikes and
// drop-retransmits overtake); the channel's resequencer must still
// apply the writes strictly in sequence order, so the arrival log
// afterwards must be exactly 0..cfSlots-1 — the contract
// Spec.DebugUnordered deliberately breaks for mutation testing.
func chanfifoRun(ch chaos) (outcome, error) {
	pattern := func(slot int) []byte {
		b := make([]byte, cfSlotBytes)
		for i := range b {
			b[i] = byte(slot*29 + i + 11)
		}
		return b
	}
	tr, err := comm.New(comm.Spec{
		Machine: mach("perlmutter-cpu"), Kind: comm.MemChannel, Ranks: 2,
		StreamSlots: []int{0, cfSlots}, SlotBytes: cfSlotBytes,
		Shards: ch.shards, Perturb: ch.perturb, Faults: ch.faults,
		NoTrace: true, DebugUnordered: ch.unordered,
	})
	if err != nil {
		return outcome{}, err
	}
	got := make([][]byte, cfSlots)
	err = tr.Launch(func(ep comm.Endpoint) {
		switch ep.Rank() {
		case 0:
			for s := 0; s < cfSlots; s++ {
				ep.Deliver(1, s, pattern(s))
			}
			ep.Quiet()
		case 1:
			for n := 0; n < cfSlots; n++ {
				slot, data := ep.WaitAnySlot()
				got[slot] = append([]byte(nil), data[:cfSlotBytes]...)
			}
		}
	})
	if err != nil {
		return outcome{}, err
	}
	ins, ok := tr.(comm.ChannelInspector)
	if !ok {
		return outcome{}, fmt.Errorf("chanfifo: transport does not expose its channels")
	}
	var c *runtime.Channel
	for _, oc := range ins.Channels(0) {
		if oc.Dst() == 1 {
			c = oc
		}
	}
	if c == nil {
		return outcome{}, fmt.Errorf("chanfifo: rank 0 opened no channel to rank 1")
	}
	if c.Sent() != cfSlots {
		return outcome{}, fmt.Errorf("chanfifo: channel carried %d writes, want %d", c.Sent(), cfSlots)
	}
	arr := c.Arrivals()
	if len(arr) != cfSlots {
		return outcome{}, fmt.Errorf("chanfifo: channel applied %d writes, want %d", len(arr), cfSlots)
	}
	for i, seq := range arr {
		if seq != uint64(i) {
			return outcome{}, fmt.Errorf(
				"chanfifo: FIFO violated: write %d applied at position %d (application order %v)",
				seq, i, arr)
		}
	}
	h := fnv.New64a()
	for s, b := range got {
		if !bytes.Equal(b, pattern(s)) {
			return outcome{}, fmt.Errorf("chanfifo: slot %d payload corrupted", s)
		}
		h.Write(b)
	}
	return outcome{fp: fmt.Sprintf("chan=%016x", h.Sum64()), digest: tr.Digest()}, nil
}
