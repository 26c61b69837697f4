package netsim

import "eac/internal/sim"

// refLink is the two-event link that Link replaced: a txDone event ends
// every transmission and starts the next, a second event drains the pipe.
// It is kept, test-only, as the reference the differential tests compare
// Link against (TestLinkMatchesReference*) and as the second subject of the
// closed-form oracle; nothing outside _test.go may use it. The packet path
// is the old link's line for line (tap, MBAC hook and fluid background
// left out); the tie counters and the ruleAtTies switch are the only
// additions.
type refLink struct {
	Delay        sim.Time
	Q            Discipline
	Marker       *VirtualQueue
	VQDropProbes bool
	Boundary     bool
	OnDrop       func(now sim.Time, p *Packet)
	Stats        LinkStats

	s        *sim.Sim
	busy     bool
	nsPerBit float64
	txPkt    *Packet
	txDone   *sim.Event
	pipe     []inflight
	pipeHd   int
	pipeN    int
	pipeEv   *sim.Event

	// An arrival at exactly the instant a transmission ends is a tie. Here
	// dispatch order (the events' seq) decides it: tiesDoneFirst counts the
	// arrivals that found the transmission already completed at now — the
	// order Link makes the rule — tiesArrivalFirst those enqueued while the
	// txDone event for now was still pending, the first of them at
	// firstArrivalFirst (-1: none).
	lastDone, firstArrivalFirst     sim.Time
	tiesDoneFirst, tiesArrivalFirst int
	// ruleAtTies makes this link resolve every tie the way Link does, by
	// running the pending txDone before the arrival is enqueued. Then the
	// two must agree on every input, however many ties it holds; without
	// it they must agree up to the first tie this link resolved otherwise.
	ruleAtTies bool
}

func newRefLink(s *sim.Sim, rateBps float64, delay sim.Time, q Discipline) *refLink {
	l := &refLink{Delay: delay, Q: q, s: s, nsPerBit: float64(sim.Second) / rateBps,
		lastDone: -1, firstArrivalFirst: -1}
	l.txDone = sim.NewStreamEvent(l.onTxDone)
	l.pipeEv = sim.NewStreamEvent(l.onDeliver)
	return l
}

func (l *refLink) Receive(now sim.Time, p *Packet) {
	switch {
	case l.busy && l.txDone.When() == now:
		if l.tiesArrivalFirst++; l.firstArrivalFirst < 0 {
			l.firstArrivalFirst = now
		}
		if l.ruleAtTies {
			l.s.Cancel(l.txDone)
			l.onTxDone(now)
		}
	case l.lastDone == now:
		l.tiesDoneFirst++
	}
	l.Stats.Arrived[p.Kind]++
	marked := l.Marker != nil && l.Marker.OnArrival(now, p)
	if marked && l.VQDropProbes && p.Kind == Probe {
		l.drop(now, p)
		return
	}
	if dropped := l.Q.Enqueue(now, p); dropped != nil {
		l.drop(now, dropped)
		if dropped == p {
			return
		}
	}
	if marked {
		p.Marked = true
		l.Stats.Marked[p.Kind]++
	}
	if !l.busy {
		l.startTx(now)
	}
}

func (l *refLink) drop(now sim.Time, p *Packet) {
	l.Stats.Dropped[p.Kind]++
	if l.OnDrop != nil {
		l.OnDrop(now, p)
	}
}

func (l *refLink) startTx(now sim.Time) {
	p := l.Q.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.txPkt = p
	l.s.Schedule(l.txDone, now+sim.Time(float64(p.Bits())*l.nsPerBit))
}

func (l *refLink) onTxDone(now sim.Time) {
	l.lastDone = now
	p := l.txPkt
	l.txPkt = nil
	l.Stats.SentBits[p.Kind] += int64(p.Bits())
	l.Stats.SentPkts[p.Kind]++
	if l.Boundary {
		if t, ok := p.nextHop().(TxEndReceiver); ok {
			p.hop++
			t.ReceiveTxEnd(now, l.Delay, p)
			l.startTx(now)
			return
		}
	}
	l.pipePush(inflight{at: now + l.Delay, p: p})
	if !l.pipeEv.Pending() {
		l.s.Schedule(l.pipeEv, now+l.Delay)
	}
	l.startTx(now)
}

func (l *refLink) pipePush(f inflight) {
	if l.pipeN == len(l.pipe) {
		nc := len(l.pipe) * 2
		if nc == 0 {
			nc = 16
		}
		np := make([]inflight, nc)
		k := copy(np, l.pipe[l.pipeHd:])
		copy(np[k:], l.pipe[:l.pipeHd])
		l.pipe = np
		l.pipeHd = 0
	}
	l.pipe[(l.pipeHd+l.pipeN)&(len(l.pipe)-1)] = f
	l.pipeN++
}

func (l *refLink) onDeliver(now sim.Time) {
	for l.pipeN > 0 && l.pipe[l.pipeHd].at <= now {
		p := l.pipe[l.pipeHd].p
		l.pipe[l.pipeHd] = inflight{}
		l.pipeHd = (l.pipeHd + 1) & (len(l.pipe) - 1)
		l.pipeN--
		p.Forward(now)
	}
	if l.pipeN > 0 {
		l.s.Schedule(l.pipeEv, l.pipe[l.pipeHd].at)
	}
}
