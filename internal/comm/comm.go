// Package comm is the unified transport layer under the paper's
// workloads. It exposes one Transport interface — halo exchange,
// put-with-signal delivery, remote atomics, and epoch semantics —
// over six transports delegating to the calibrated stacks:
//
//   - TwoSided: internal/mpi Isend/Irecv/Waitall (eager protocol,
//     non-overtaking matching);
//   - OneSided: MPI-3 RMA with the paper's strict discipline — fence
//     epochs for BSP exchange, the 4-op put/flush/put/flush protocol
//     plus Listing-1 polling for streamed delivery, and CAS/fetch-add
//     with per-op flush_local for atomics;
//   - Notified: CPU one-sided with hardware put-with-signal
//     (foMPI-style notified access, §V): one fused 2-op flight per
//     delivery, no second flush round trip, no polling loop;
//   - Shmem: NVSHMEM-style PGAS (put_signal_nbi, wait_until_*,
//     device atomics, fork/join block contexts);
//   - StreamTriggered: stream-triggered MPI — the host enqueues
//     descriptors onto a simulated device stream (internal/gpu) and
//     the trigger engine fires each at stream-dependency resolution:
//     near-zero host o, trigger latency added to L;
//   - MemChannel: RAMC-style ordered remote-memory channels
//     (internal/runtime.Channel) — per-(src,dst) FIFO byte streams
//     with open/credit semantics where ordering replaces per-op
//     completion and quiet maps to channel drainage. A rank opens a
//     channel on its first write to that destination.
//
// All but TwoSided are one implementation (shmemT over the
// internal/shmem PGAS core): the same lazy heap, dissemination barrier,
// exchange, slot wait and remote atomics, differing only in how a put
// leaves the host and in what Quiet waits on.
//
// The kernels in internal/{stencil,sptrsv,hashtable} are written once
// against this interface; the transport is a table entry, not a
// hand-written runner. Each transport charges the simulated clocks and
// protocol op counts of its calibrated stack, so the workloads differ
// only in the Kind they pass.
//
// Trace accounting is threaded through here exactly once: New
// installs an internal/trace recorder's Record as the stack's message
// hook (payload deliveries only — protocol-overhead signal puts of the
// strict 4-op path are charged but not recorded, while fused
// put-with-signal records payload+8 as one flight, matching the
// paper's k=4 / k=2 op accounting), and each synchronization (a
// completed exchange epoch, a consumed slot, a collected insert round)
// marks rec.Sync(). With NoTrace set no recorder exists and no hook
// is installed: zero per-message cost.
package comm

import (
	"fmt"
	"strings"

	"msgroofline/internal/gpu"
	"msgroofline/internal/machine"
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
	"msgroofline/internal/trace"
)

// Kind selects one of the six communication stacks.
type Kind int

const (
	// TwoSided is plain MPI point-to-point.
	TwoSided Kind = iota
	// OneSided is MPI-3 RMA under the paper's strict discipline.
	OneSided
	// Notified is RMA with hardware put-with-signal (notified access).
	Notified
	// Shmem is the NVSHMEM-style GPU PGAS stack.
	Shmem
	// StreamTriggered is CPU-free stream-triggered MPI: descriptors
	// enqueued on the device stream, fired at dependency resolution.
	StreamTriggered
	// MemChannel is the RAMC-style ordered remote-memory channel.
	MemChannel
)

// kindNames is the transport registry: canonical name per Kind, in
// Kind order. CLI usage strings and parse errors are generated from it
// so a new transport can never be silently missing from a hardcoded
// list.
var kindNames = []string{"two-sided", "one-sided", "notified", "shmem", "stream-triggered", "memchannel"}

// String returns the canonical transport name used by case tables,
// CLI flags, and the conformance matrix.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("comm.Kind(%d)", int(k))
}

// ParseKind maps a transport name to its Kind. "gpu" is accepted as
// an alias for "shmem".
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	if s == "gpu" {
		return Shmem, nil
	}
	return 0, fmt.Errorf("comm: unknown transport %q (want %s)", s, KindList())
}

// KindList renders the registry as a human-readable list for usage
// text and errors: "a, b, ..., or z".
func KindList() string {
	n := len(kindNames)
	return strings.Join(kindNames[:n-1], ", ") + ", or " + kindNames[n-1]
}

// Caps describes what a transport can do natively, so a kernel can
// pick between the paper's protocol designs without knowing which
// stack it runs on.
type Caps struct {
	// Atomics reports native remote CAS/FetchAdd. Two-sided MPI has
	// none — its hashtable design broadcasts every update instead
	// (BcastPut/CollectPuts).
	Atomics bool
}

// Msg is one outgoing transfer of an exchange: Data lands in Peer's
// receive slot Slot of the current epoch.
type Msg struct {
	Peer int
	Slot int
	Data []byte
}

// Expect declares one incoming transfer of an exchange: Peer will
// fill this rank's slot Slot with Bytes payload bytes.
type Expect struct {
	Peer  int
	Slot  int
	Bytes int
}

// Spec describes the communication world one workload run needs.
// Exactly one of the three slot geometries must be set:
//
//   - ExchangeSlots/SlotBytes: BSP epoch exchange (stencil). Each
//     rank owns ExchangeSlots receive slots of SlotBytes, double-
//     buffered by epoch parity in the window transports.
//   - StreamSlots/SlotBytes: streamed put-with-signal delivery
//     (sptrsv). StreamSlots[r] is rank r's receive-slot count; each
//     slot holds SlotBytes.
//   - SharedBytes: a raw symmetric heap per rank for remote atomics
//     (hashtable).
type Spec struct {
	Machine *machine.Config
	Kind    Kind
	Ranks   int

	// ExchangeSlots is the per-epoch slot count K of BSP exchange.
	ExchangeSlots int
	// SlotBytes is the stride of one exchange or stream slot.
	SlotBytes int
	// StreamSlots holds per-rank streamed receive-slot counts.
	StreamSlots []int
	// PollCheck charges the Listing-1 signal scan of the strict
	// one-sided stream receiver per remaining slot per wakeup.
	PollCheck sim.Time
	// SharedBytes sizes the per-rank atomics heap.
	SharedBytes int

	// Shards is the -shards worker count for the world (<= 0 means 1):
	// how many fabric node groups of the coupled conservative-lookahead
	// engine may execute a window concurrently. Simulated output is
	// byte-identical at every value — the group structure and the
	// barrier total order are topology-determined (DESIGN.md §7) — so
	// Shards buys wall-clock parallelism without touching results.
	Shards int

	// Chaos is installed on the world of every transport
	// (runtime.World.SetChaos): one value carries schedule
	// perturbation, network faults and the one ordering switch, which
	// breaks MPI non-overtaking, channel FIFO and the stream
	// dependency alike. The zero value, outside the conformance
	// harness, leaves runs byte-identical.
	Chaos runtime.Chaos
	// NoTrace skips recorder creation and hook installation.
	NoTrace bool
}

func (s Spec) validate() error {
	if s.Machine == nil {
		return fmt.Errorf("comm: nil machine")
	}
	if s.Ranks < 1 {
		return fmt.Errorf("comm: ranks = %d", s.Ranks)
	}
	modes := 0
	if s.ExchangeSlots > 0 {
		modes++
	}
	if s.StreamSlots != nil {
		modes++
	}
	if s.SharedBytes > 0 {
		modes++
	}
	if modes != 1 {
		return fmt.Errorf("comm: exactly one of ExchangeSlots/StreamSlots/SharedBytes must be set (got %d)", modes)
	}
	if (s.ExchangeSlots > 0 || s.StreamSlots != nil) && s.SlotBytes < 1 {
		return fmt.Errorf("comm: SlotBytes = %d", s.SlotBytes)
	}
	if s.StreamSlots != nil && len(s.StreamSlots) != s.Ranks {
		return fmt.Errorf("comm: StreamSlots has %d entries for %d ranks", len(s.StreamSlots), s.Ranks)
	}
	return nil
}

// Transport is one built communication world: engine, fabric,
// windows/heaps, and trace tap, ready to Launch the per-rank kernel.
type Transport interface {
	Kind() Kind
	Caps() Caps
	Ranks() int
	// Digest folds the per-group event-order digests of the run (the
	// shard-determinism certificate; see runtime.World.Digest).
	Digest() uint64
	// Launch runs body once per rank as a simulated process and
	// blocks until the world drains.
	Launch(body func(Endpoint)) error
	// Elapsed is the simulated time consumed by Launch.
	Elapsed() sim.Time
	// Recorder is the trace tap attached at construction, nil when
	// Spec.NoTrace was set.
	Recorder() *trace.Recorder
	// SharedBytes exposes rank's atomics heap after Launch (nil for
	// transports without one).
	SharedBytes(rank int) []byte
	// AtomicCount is the total remote atomic operations executed.
	AtomicCount() int64
}

// Endpoint is one rank's handle inside Launch. The op families map
// onto the Spec geometries: Exchange needs ExchangeSlots, Deliver/
// WaitAnySlot need StreamSlots, CAS/FetchAdd/FlushLocal need
// SharedBytes, and BcastPut/CollectPuts are the two-sided fallback
// for transports without atomics.
type Endpoint interface {
	Rank() int
	Size() int
	Caps() Caps
	// Now returns this rank's current simulated time.
	Now() sim.Time
	// Compute advances this rank's clock by d (local work).
	Compute(d sim.Time)
	// Barrier synchronizes all ranks.
	Barrier()
	// Quiet completes this rank's outstanding nonblocking deliveries
	// per the transport's native discipline. Two-sided, one-sided
	// and notified access are already locally complete by protocol
	// construction (eager two-sided sends; the strict path flushes
	// per op; notified access fuses completion), so they neither
	// charge nor wait. Shmem and stream-triggered charge one op;
	// memory channels drain each channel the rank has written to.
	Quiet()

	// Exchange runs one BSP epoch: every Msg lands in its peer's
	// epoch slot, then the call blocks until all Expect slots of this
	// rank have arrived and returns their payloads in recvs order.
	// The returned list is the endpoint's own, valid until its next
	// Exchange. Its slices alias transport memory where windows exist
	// and are only valid until the next epoch of the same parity.
	Exchange(epoch int, sends []Msg, recvs []Expect) [][]byte

	// Deliver streams data into (peer, slot) with arrival signaling,
	// using the transport's protocol: eager Isend, strict 4-op
	// put/flush/put/flush, fused put-with-signal.
	Deliver(peer, slot int, data []byte)
	// WaitAnySlot blocks for the next undelivered slot and returns
	// its index and payload (window transports return the full slot
	// stride; callers slice to their payload length). The payload is
	// for reading only: a slot that only blank payloads
	// (runtime.Blank) reached may come back as the shared zero view.
	WaitAnySlot() (slot int, data []byte)

	// CAS atomically compares-and-swaps the uint64 at (peer, off) in
	// the shared heap, returning the old value.
	CAS(peer, off int, compare, swap uint64) uint64
	// FetchAdd atomically adds delta at (peer, off), returning the
	// old value.
	FetchAdd(peer, off int, delta uint64) uint64
	// FlushLocal forces local completion of outstanding RMA toward
	// peer (a charged MPI op); a no-op where ops complete fused
	// (notified access) or blocking (shmem atomics).
	FlushLocal(peer int)

	// Lanes reports how many concurrent lanes ForkJoin can actually
	// run: want on shmem (GPU thread-block contexts), 1 elsewhere.
	Lanes(want int) int
	// ForkJoin runs body on lanes concurrent contexts (shmem) or
	// inline sequentially (CPU transports).
	ForkJoin(lanes int, body func(lane Endpoint, i int))

	// BcastPut sends data to every other rank (the paper's two-sided
	// hashtable broadcast); CollectPuts receives the Size()-1 round
	// payloads in arrival order and marks the round synchronization.
	BcastPut(data []byte)
	CollectPuts() [][]byte
}

// New builds the transport selected by spec.Kind: world bootstrap,
// chaos injection, window/heap geometry, and the trace tap, so no
// workload builds its own.
func New(spec Spec) (Transport, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case TwoSided:
		return newTwoSided(spec)
	case OneSided, Notified, Shmem, StreamTriggered, MemChannel:
		return newShmem(spec)
	}
	return nil, fmt.Errorf("comm: unknown transport kind %d", int(spec.Kind))
}

// StreamInspector is implemented by transports whose sends ride a
// per-rank device stream; conformance oracles read its fire count and
// first early fire after Launch. The stream is made at Launch under
// Spec.Chaos, so its ordering switch is the world's.
type StreamInspector interface {
	Stream(rank int) *gpu.Stream
}

// ChannelInspector is implemented by transports whose sends ride
// ordered memory channels; conformance oracles read each channel's
// FIFO check after Launch.
type ChannelInspector interface {
	Channels(rank int) []*runtime.Channel
}

// base carries the pieces shared by every transport implementation.
type base struct {
	spec Spec
	rec  *trace.Recorder
}

func (b *base) Ranks() int                { return b.spec.Ranks }
func (b *base) Recorder() *trace.Recorder { return b.rec }

// attachTrace creates the run's trace recorder, or returns nil with
// NoTrace set, in which case the caller installs no hook and tracing
// costs nothing per message.
func (b *base) attachTrace() *trace.Recorder {
	if !b.spec.NoTrace {
		b.rec = trace.New()
	}
	return b.rec
}

// sync marks one synchronization on the trace tap.
func (b *base) sync() {
	if b.rec != nil {
		b.rec.Sync()
	}
}
