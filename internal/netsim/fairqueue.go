package netsim

import "eac/internal/sim"

// FairQueue is a deficit-round-robin approximation of per-flow Fair
// Queueing with a shared buffer. It exists to demonstrate the paper's
// Section 2.1.1 argument — that Fair Queueing's isolation is *unsuited* to
// endpoint admission control, because a probing flow sees only its own
// fair share's congestion and later arrivals can steal bandwidth from
// already-admitted larger flows. It is not used by any of the prototype
// designs.
//
// When the shared buffer is full, the arrival pushes out a packet from the
// currently longest queue (longest-queue-drop, the standard FQ buffer
// policy); if the arriving flow itself owns the longest queue, the
// arrival is dropped.
type FairQueue struct {
	cap     int
	quantum int // bytes added to a flow's deficit per round
	total   int

	flows  map[int]*fqFlow
	active []*fqFlow // round-robin order, index 0 is next to serve
}

type fqFlow struct {
	id      int
	q       sim.Ring[*Packet]
	deficit int
	queued  bool // present in active
}

// NewFairQueue returns a DRR fair queue with the given shared buffer
// capacity (packets) and per-round quantum (bytes; use at least the MTU).
func NewFairQueue(capPackets, quantumBytes int) *FairQueue {
	if capPackets <= 0 || quantumBytes <= 0 {
		panic("netsim: NewFairQueue requires positive capacity and quantum")
	}
	return &FairQueue{cap: capPackets, quantum: quantumBytes, flows: map[int]*fqFlow{}}
}

func (fq *FairQueue) flow(id int) *fqFlow {
	f := fq.flows[id]
	if f == nil {
		f = &fqFlow{id: id}
		fq.flows[id] = f
	}
	return f
}

// longest returns the flow with the most queued packets.
func (fq *FairQueue) longest() *fqFlow {
	var worst *fqFlow
	for _, f := range fq.active {
		if worst == nil || f.q.Len() > worst.q.Len() {
			worst = f
		}
	}
	return worst
}

// Enqueue implements Discipline.
func (fq *FairQueue) Enqueue(_ sim.Time, p *Packet) *Packet {
	var victim *Packet
	if fq.total >= fq.cap {
		worst := fq.longest()
		if worst == nil || worst.id == p.FlowID {
			return p
		}
		victim = worst.q.PopTail()
		fq.total--
	}
	f := fq.flow(p.FlowID)
	f.q.Push(p)
	fq.total++
	if !f.queued {
		f.queued = true
		f.deficit = 0
		fq.active = append(fq.active, f)
	}
	return victim
}

// Dequeue implements Discipline (deficit round robin).
func (fq *FairQueue) Dequeue() *Packet {
	for rounds := 0; len(fq.active) > 0; rounds++ {
		f := fq.active[0]
		if f.q.Len() == 0 {
			// Exhausted: drop from the schedule.
			fq.active = fq.active[1:]
			f.queued = false
			continue
		}
		head := f.q.Front()
		if f.deficit < int(head.Size) {
			// Not enough credit: move to the back with a fresh quantum.
			f.deficit += fq.quantum
			fq.active = append(fq.active[1:], f)
			continue
		}
		p := f.q.Pop()
		f.deficit -= int(p.Size)
		fq.total--
		if f.q.Len() == 0 {
			fq.active = fq.active[1:]
			f.queued = false
			f.deficit = 0
		}
		return p
	}
	return nil
}

// Len implements Discipline.
func (fq *FairQueue) Len() int { return fq.total }

// FlowLen returns the queued packets of one flow (for tests).
func (fq *FairQueue) FlowLen(id int) int {
	if f := fq.flows[id]; f != nil {
		return f.q.Len()
	}
	return 0
}
