package mpi

import (
	"msgroofline/internal/runtime"
	"msgroofline/internal/sim"
)

// Request is the handle of a nonblocking operation. Send requests
// complete as soon as the payload is buffered and injected (eager
// protocol); receive requests complete when a matching message has
// been delivered. A Request belongs to the caller: the library never
// reuses one it returned.
type Request struct {
	owner *Rank
	done  bool

	// match pattern (receives only)
	src, tag int

	// results, valid once done
	Data []byte
	Src  int
	Tag  int
	At   sim.Time // delivery time of the matched message
}

// Done reports whether the request has completed.
func (q *Request) Done() bool { return q.done }

// Isend starts an eager nonblocking send of data to dst with the
// given tag. The payload is copied, so the caller may reuse its
// buffer immediately; a blank payload (runtime.Blank) has no bytes
// to protect and reaches the receiver as the same read-only view.
// The returned request is already complete.
func (r *Rank) Isend(dst, tag int, data []byte) *Request {
	r.isend(dst, tag, data)
	return &Request{owner: r, done: true, Src: r.id, Tag: tag}
}

// isend is Isend without a request: Send discards it, so it skips
// its allocation.
func (r *Rank) isend(dst, tag int, data []byte) {
	// Self-sends are legal and ride the loopback (shared-memory) path
	// like any other same-node message.
	r.ep.ChargeOp(r.proc, r.comm.two)
	buf := data
	if !runtime.IsBlank(data) {
		buf = make([]byte, len(data))
		copy(buf, data)
	}
	if r.sendSeq == nil {
		r.sendSeq = make(map[int]uint64)
	}
	seq := r.sendSeq[dst]
	r.sendSeq[dst] = seq + 1
	env := r.envelope()
	env.src, env.tag, env.seq, env.data = r.id, tag, seq, buf
	env.to, env.issue = r.comm.ranks[dst], r.proc.Now()
	// Delivery mutates only target-rank state, so the whole callback
	// runs on the target's engine (the remote half of the split).
	r.ep.Inject(r.comm.two, dst, int64(len(buf)), r.ep.AutoChannel(), env.land, nil)
}

// Send is a blocking send; with the eager protocol it returns as soon
// as the message is injected (identical cost to Isend).
func (r *Rank) Send(dst, tag int, data []byte) { r.isend(dst, tag, data) }

// Irecv posts a nonblocking receive matching (src, tag), where either
// may be AnySource/AnyTag. Matching follows MPI ordering: the oldest
// matching unexpected message wins, else the request queues in post
// order.
func (r *Rank) Irecv(src, tag int) *Request {
	req := &Request{owner: r, src: src, tag: tag}
	r.ep.ChargeOp(r.proc, r.comm.two)
	if env := r.takeUnexpected(src, tag); env != nil {
		r.complete(req, env)
	} else {
		r.posted = append(r.posted, req)
	}
	return req
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its payload and metadata.
func (r *Rank) Recv(src, tag int) *Request {
	req := r.Irecv(src, tag)
	r.Wait(req)
	return req
}

// Wait blocks until the request completes.
func (r *Rank) Wait(req *Request) {
	if req.owner != r {
		panic("mpi: waiting on another rank's request")
	}
	r.arrived.WaitFor(r.proc, func() bool { return req.done })
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(reqs []*Request) {
	r.arrived.WaitFor(r.proc, func() bool {
		for _, q := range reqs {
			if !q.done {
				return false
			}
		}
		return true
	})
}

// deliver runs in engine context when a message reaches this rank. Its
// source's resequencer restores send order — a retransmitted message
// may arrive after a later send from the same source — and admits
// in-order arrivals to the matching queue.
func (r *Rank) deliver(env *envelope) {
	o := r.recv[env.src]
	if o == nil {
		if r.recv == nil {
			r.recv = make(map[int]*runtime.Order[*envelope])
		}
		o = runtime.NewOrder[*envelope](r.comm.world)
		r.recv[env.src] = o
	}
	o.Arrive(env.seq, env, r.admit)
}

// admit runs in engine context once an arrival is in order: match the
// oldest posted receive, or queue as unexpected.
func (r *Rank) admit(env *envelope) {
	for i, req := range r.posted {
		if req.matches(env) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			r.complete(req, env)
			r.arrived.Broadcast()
			return
		}
	}
	r.unexpected = append(r.unexpected, env)
	r.arrived.Broadcast()
}

// takeUnexpected removes and returns the oldest unexpected message
// matching (src, tag), or nil.
func (r *Rank) takeUnexpected(src, tag int) *envelope {
	for i, env := range r.unexpected {
		if matchPattern(src, tag, env) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return env
		}
	}
	return nil
}

func (q *Request) matches(env *envelope) bool {
	return matchPattern(q.src, q.tag, env)
}

// matchPattern matches env against a receive's (src, tag), either of
// which may be a wildcard.
func matchPattern(src, tag int, env *envelope) bool {
	return (src == AnySource || src == env.src) && (tag == AnyTag || tag == env.tag)
}

// complete copies a matched envelope's results into req and returns
// the envelope to this (the receiving) rank's free list.
func (r *Rank) complete(req *Request, env *envelope) {
	req.done = true
	req.Data = env.data
	req.Src = env.src
	req.Tag = env.tag
	req.At = env.at
	r.release(env)
}

// maxFreeEnvelopes caps a rank's envelope free list. Envelopes move
// from their sender's list to their receiver's, so a rank that
// receives more than it sends would otherwise hoard them.
const maxFreeEnvelopes = 64

// envelope takes an envelope from the sending rank's free list.
func (r *Rank) envelope() *envelope {
	env := r.envs
	if env == nil {
		env = &envelope{}
		env.land = env.arrive
		return env
	}
	r.envs = env.next
	r.nenvs--
	return env
}

// release returns a matched envelope to this rank's free list, up to
// maxFreeEnvelopes.
func (r *Rank) release(env *envelope) {
	env.data = nil
	if r.nenvs >= maxFreeEnvelopes {
		return
	}
	env.next, r.envs = r.envs, env
	r.nenvs++
}

// arrive is an envelope's delivery (its bound land), on the target's
// engine.
func (env *envelope) arrive(at sim.Time) {
	env.at = at
	t := env.to
	if hook := t.comm.sendHook; hook != nil {
		hook(env.src, t.id, int64(len(env.data)), env.issue, at)
	}
	t.deliver(env)
}
