package runtime

// Order restores send order on one (source, destination) stream: MPI's
// non-overtaking rule and a memory channel's FIFO are both this rule.
// The sender numbers its values 0, 1, 2, ...; faults, latency spikes
// and detours may reorder the wire. Order keeps a landed cursor, a
// stash of overtaking arrivals (made on the first one and released
// once it drains) and the first value that landed out of sequence,
// which only a world whose ordering switch is set (Chaos.Unordered)
// produces. It belongs to the receiver's engine.
type Order[T any] struct {
	landed         uint64
	stash          map[uint64]T
	unordered      bool // the world's switch when the Order was made
	misordered     bool
	badSeq, badPos uint64
}

// NewOrder returns an empty resequencer under w's ordering switch.
func NewOrder[T any](w *World) *Order[T] { return &Order[T]{unordered: w.chaos.Unordered} }

// Arrive takes v, numbered seq by the sender. The next value in send
// order lands at once, followed by the stashed successors it unblocks;
// any other is stashed. Under the switch every value lands at once.
// Arrive never reads a value after landing it: the sender may reuse it.
func (o *Order[T]) Arrive(seq uint64, v T, land func(T)) {
	if seq != o.landed && !o.unordered {
		if o.stash == nil {
			o.stash = make(map[uint64]T)
		}
		o.stash[seq] = v
		return
	}
	for {
		if seq != o.landed && !o.misordered {
			o.misordered, o.badSeq, o.badPos = true, seq, o.landed
		}
		o.landed++
		land(v)
		next, ok := o.stash[o.landed]
		if !ok {
			break
		}
		delete(o.stash, o.landed)
		seq, v = o.landed, next
	}
	if len(o.stash) == 0 {
		o.stash = nil
	}
}

// Pending returns how many arrivals are stashed.
func (o *Order[T]) Pending() int { return len(o.stash) }

// Landed returns how many values have landed and whether any landed
// out of send order: the first such one, seq, landed at position pos.
func (o *Order[T]) Landed() (landed uint64, misordered bool, seq, pos uint64) {
	return o.landed, o.misordered, o.badSeq, o.badPos
}
