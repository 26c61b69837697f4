// Package shard implements a conservative parallel discrete-event executor
// over per-shard sim.Sim instances, in the bulk-synchronous (YAWNS-style)
// variant of classic conservative PDES: all shards advance in lock-stepped
// windows of a global lookahead, exchanging timestamped cross-shard
// messages at each barrier.
//
// Correctness argument (the lookahead proof; see DESIGN.md §4e). Let W be
// the window, with W no larger than the minimum latency D of any
// cross-shard channel — for a network simulation, the propagation delay of
// any boundary link, provided custody is handed over at transmission end,
// while the full propagation delay is still ahead of the packet. Windows
// execute as Run(0), Run(W), Run(2W), …: window j executes exactly the
// events with timestamp in ((j-1)·W, j·W]. A message created by an event
// at time t in window j is due at t+D ≥ t+W > (j-1)·W + W = j·W, i.e.
// strictly after the window that created it. Delivering all staged
// messages at the barrier after window j therefore schedules every one of
// them before any event that could observe it runs, and no shard ever
// receives an event in its past. Time-zero events are handled by making
// the first window the degenerate Run(0).
//
// Determinism: each shard's simulator is deterministic; the barrier
// schedule is fixed; and staged messages are injected in the total order
// (due time, source shard, source sequence). A sharded run is therefore
// exactly reproducible for a fixed shard count — though it is not
// event-order-equivalent to the serial run, which is why the conformance
// layer compares sharded results under statistical envelopes rather than
// byte identity.
package shard

import (
	"sort"
	"sync"

	"eac/internal/sim"
)

// Msg is one cross-shard message: an opaque payload due on the destination
// shard at At.
type Msg[P any] struct {
	At sim.Time
	P  P

	src int   // sending shard, for deterministic tie-breaking
	seq int64 // per-sender sequence number, ditto
}

// Shard is one partition: a simulator, its incoming mailbox, and its
// staged outgoing messages. All its methods (and all events on its Sim)
// run on the shard's own worker goroutine; only the executor's barrier
// touches it from outside, strictly between windows.
type Shard[P any] struct {
	// Sim is the shard's private simulator.
	Sim *sim.Sim
	// Deliver consumes an incoming message once its due time is reached;
	// it runs as an event on Sim. The owner must set it before Run.
	Deliver func(now sim.Time, p P)

	idx     int
	seq     int64
	outs    [][]Msg[P] // staged by destination shard, drained at barriers
	inbox   []Msg[P]   // pending incoming, sorted by (At, src, seq)
	inboxEv *sim.Event
}

// Send stages a message for shard dst, due at the destination at time at.
// It must be called from an event executing on this shard's simulator, and
// at must lie strictly beyond the current window's end — which holds by
// construction when at includes a boundary latency of at least one window
// (the package comment's proof). The executor checks this and panics on a
// violation rather than corrupting causality.
func (s *Shard[P]) Send(dst int, at sim.Time, p P) {
	s.outs[dst] = append(s.outs[dst], Msg[P]{At: at, P: p, src: s.idx, seq: s.seq})
	s.seq++
}

// deliverDue fires due inbox messages; it is the handler of inboxEv, which
// is always scheduled at inbox[0].At while the inbox is non-empty.
func (s *Shard[P]) deliverDue(now sim.Time) {
	i := 0
	for i < len(s.inbox) && s.inbox[i].At <= now {
		s.Deliver(now, s.inbox[i].P)
		i++
	}
	if i > 0 {
		n := copy(s.inbox, s.inbox[i:])
		for j := n; j < len(s.inbox); j++ {
			s.inbox[j] = Msg[P]{} // drop payload references for pooled payloads
		}
		s.inbox = s.inbox[:n]
	}
	if len(s.inbox) > 0 {
		s.Sim.Schedule(s.inboxEv, s.inbox[0].At)
	}
}

// Exec coordinates K shards through barrier-synchronized windows.
type Exec[P any] struct {
	// Window is the global conservative lookahead: no cross-shard message
	// may be due sooner than one window after its send time. The owner may
	// adjust it between runs (e.g. when link delays change across a reused
	// topology) but not during one.
	Window sim.Time

	shards []*Shard[P]
}

// NewExec builds an executor with k fresh shards (each with its own
// simulator) and the given window. k must be at least 1 and window
// positive.
func NewExec[P any](k int, window sim.Time) *Exec[P] {
	if k < 1 {
		panic("shard: NewExec requires at least one shard")
	}
	if window <= 0 {
		panic("shard: NewExec requires a positive window")
	}
	x := &Exec[P]{Window: window, shards: make([]*Shard[P], k)}
	for i := range x.shards {
		sh := &Shard[P]{Sim: sim.New(), idx: i, outs: make([][]Msg[P], k)}
		sh.inboxEv = sim.NewStreamEvent(sh.deliverDue)
		x.shards[i] = sh
	}
	return x
}

// Shard returns shard i.
func (x *Exec[P]) Shard(i int) *Shard[P] { return x.shards[i] }

// Executed returns each shard simulator's cumulative executed-event
// count, indexed by shard. Call between Run windows or after Run — not
// while workers are inside a window.
func (x *Exec[P]) Executed() []uint64 {
	out := make([]uint64, len(x.shards))
	for i, sh := range x.shards {
		out[i] = sh.Sim.Executed()
	}
	return out
}

// Run advances every shard to until. Shards execute concurrently within a
// window on persistent per-shard worker goroutines; the coordinator
// exchanges staged messages at each barrier. The first window is the
// degenerate Run(0) so that time-zero events cannot send messages into
// their own window.
func (x *Exec[P]) Run(until sim.Time) {
	if len(x.shards) == 1 {
		// Degenerate case: no concurrency, no barriers needed.
		x.shards[0].Sim.Run(until)
		return
	}
	starts := make([]chan sim.Time, len(x.shards))
	var wg sync.WaitGroup
	for i, sh := range x.shards {
		starts[i] = make(chan sim.Time, 1)
		go func(sh *Shard[P], ch chan sim.Time) {
			for t := range ch {
				sh.Sim.Run(t)
				wg.Done()
			}
		}(sh, starts[i])
	}
	for t := sim.Time(0); ; t += x.Window {
		if t > until {
			t = until
		}
		wg.Add(len(x.shards))
		for _, ch := range starts {
			ch <- t
		}
		wg.Wait()
		x.exchange(t)
		if t >= until {
			break
		}
	}
	for _, ch := range starts {
		close(ch)
	}
}

// exchange moves every shard's staged messages into the destination
// inboxes and (re)schedules the inbox events. It runs on the coordinator
// between windows; the surrounding barrier establishes the happens-before
// edges that make the cross-goroutine hand-off safe.
func (x *Exec[P]) exchange(windowEnd sim.Time) {
	for _, src := range x.shards {
		for d, out := range src.outs {
			if len(out) == 0 {
				continue
			}
			dst := x.shards[d]
			for _, m := range out {
				if m.At <= windowEnd {
					panic("shard: cross-shard message due inside its own window (lookahead violated)")
				}
				dst.inbox = append(dst.inbox, m)
			}
			// Zero the drained slots so pooled payloads are not retained.
			for i := range out {
				out[i] = Msg[P]{}
			}
			src.outs[d] = out[:0]
		}
	}
	for _, sh := range x.shards {
		if len(sh.inbox) == 0 {
			continue
		}
		in := sh.inbox
		sort.Slice(in, func(i, j int) bool {
			if in[i].At != in[j].At {
				return in[i].At < in[j].At
			}
			if in[i].src != in[j].src {
				return in[i].src < in[j].src
			}
			return in[i].seq < in[j].seq
		})
		sh.Sim.Reschedule(sh.inboxEv, in[0].At)
	}
}

// Reset clears the executor's message state — inboxes, staged outs, and
// sequence counters — for reuse across runs. The shard simulators are not
// touched: the owner resets them (and must, via sim.Sim.Reset, which is
// also what makes forgetting the inbox events safe).
func (x *Exec[P]) Reset() {
	for _, sh := range x.shards {
		sh.seq = 0
		for d := range sh.outs {
			for i := range sh.outs[d] {
				sh.outs[d][i] = Msg[P]{}
			}
			sh.outs[d] = sh.outs[d][:0]
		}
		for i := range sh.inbox {
			sh.inbox[i] = Msg[P]{}
		}
		sh.inbox = sh.inbox[:0]
		sh.inboxEv.Forget()
	}
}
