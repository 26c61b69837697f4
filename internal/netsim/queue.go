package netsim

import "eac/internal/sim"

// Discipline is a buffering/scheduling discipline for packets awaiting
// transmission. Enqueue returns the packet that was dropped as a result of
// the arrival: nil if the arrival was accepted without loss, the arriving
// packet itself if it was rejected, or a different (pushed-out) packet if
// the arrival displaced a lower-priority resident. The current simulation
// time is supplied for disciplines whose drop decision is time-dependent
// (RED's idle decay); FIFO disciplines ignore it.
type Discipline interface {
	Enqueue(now sim.Time, p *Packet) (dropped *Packet)
	Dequeue() *Packet
	Len() int
}

// DropTail is a single FIFO with a finite buffer measured in packets.
type DropTail struct {
	q   sim.Ring[*Packet]
	cap int
}

// NewDropTail returns a drop-tail FIFO holding at most capPackets waiting
// packets.
func NewDropTail(capPackets int) *DropTail {
	if capPackets <= 0 {
		panic("netsim: NewDropTail requires positive capacity")
	}
	return &DropTail{cap: capPackets}
}

// Enqueue implements Discipline.
func (d *DropTail) Enqueue(_ sim.Time, p *Packet) *Packet {
	if d.q.Len() >= d.cap {
		return p
	}
	d.q.Push(p)
	return nil
}

// Dequeue implements Discipline.
func (d *DropTail) Dequeue() *Packet { return d.q.Pop() }

// Len implements Discipline.
func (d *DropTail) Len() int { return d.q.Len() }

// PriorityPushout is a strict-priority discipline with NumBands bands
// sharing one buffer of capPackets. Band 0 (data) is served first. When the
// buffer is full, an arriving data packet pushes out the most recent
// resident probe packet (paper Section 3.1: "incoming data packets push out
// resident probe packets if the buffer is full"); an arriving probe packet
// is dropped.
type PriorityPushout struct {
	bands [NumBands]sim.Ring[*Packet]
	cap   int
	total int
}

// NewPriorityPushout returns a two-band priority queue with a shared buffer
// of capPackets waiting packets.
func NewPriorityPushout(capPackets int) *PriorityPushout {
	if capPackets <= 0 {
		panic("netsim: NewPriorityPushout requires positive capacity")
	}
	return &PriorityPushout{cap: capPackets}
}

// Enqueue implements Discipline.
func (q *PriorityPushout) Enqueue(_ sim.Time, p *Packet) *Packet {
	if q.total < q.cap {
		q.bands[p.Band].Push(p)
		q.total++
		return nil
	}
	// Buffer full: higher-priority arrivals may displace lower-band
	// residents, scanning from the lowest band upward.
	for b := NumBands - 1; b > p.Band; b-- {
		if q.bands[b].Len() > 0 {
			victim := q.bands[b].PopTail()
			q.bands[p.Band].Push(p)
			return victim
		}
	}
	return p
}

// Dequeue implements Discipline.
func (q *PriorityPushout) Dequeue() *Packet {
	for b := 0; b < NumBands; b++ {
		if q.bands[b].Len() > 0 {
			q.total--
			return q.bands[b].Pop()
		}
	}
	return nil
}

// Len implements Discipline.
func (q *PriorityPushout) Len() int { return q.total }

// SetCap changes the shared buffer capacity of an EMPTY queue, retaining
// the band rings' backing arrays. It is the discipline half of the
// run-state reuse path (Link.Reset drains the queue first); it panics on
// a non-empty queue because resizing one has no well-defined semantics.
func (q *PriorityPushout) SetCap(capPackets int) {
	if capPackets <= 0 {
		panic("netsim: PriorityPushout.SetCap requires positive capacity")
	}
	if q.total != 0 {
		panic("netsim: PriorityPushout.SetCap on a non-empty queue")
	}
	q.cap = capPackets
}

// BandLen returns the number of waiting packets in one band.
func (q *PriorityPushout) BandLen(b int) int { return q.bands[b].Len() }
