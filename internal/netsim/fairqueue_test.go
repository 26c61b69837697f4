package netsim

import (
	"testing"

	"eac/internal/sim"
	"eac/internal/stats"
)

func fqPkt(flow int, seq int64, size int) *Packet {
	return &Packet{FlowID: flow, Seq: seq, Size: int32(size), Kind: Data, Band: BandData}
}

func TestFairQueueRoundRobin(t *testing.T) {
	fq := NewFairQueue(100, 125)
	// Two flows, equal packet sizes: service alternates.
	for i := int64(0); i < 3; i++ {
		fq.Enqueue(0, fqPkt(1, i, 125))
		fq.Enqueue(0, fqPkt(2, i, 125))
	}
	var order []int
	for p := fq.Dequeue(); p != nil; p = fq.Dequeue() {
		order = append(order, p.FlowID)
	}
	if len(order) != 6 {
		t.Fatalf("dequeued %d packets", len(order))
	}
	a, b := 0, 0
	for i := 0; i < 4; i++ { // within any prefix of 4, close to 2/2
		if order[i] == 1 {
			a++
		} else {
			b++
		}
	}
	if a < 1 || b < 1 {
		t.Fatalf("no interleaving: %v", order)
	}
}

func TestFairQueueBandwidthShares(t *testing.T) {
	// A flow sending twice as fast gets the same service rate when both
	// are backlogged (max-min fairness).
	s := sim.New()
	fq := NewFairQueue(1000, 125)
	l := NewLink(s, "fq", 1e6, sim.Millisecond, fq)
	counts := map[int]int{}
	sink := sinkCounter{counts: counts}
	emit := func(flow int, rateBps float64) {
		gap := sim.Time(float64(sim.Second) * 125 * 8 / rateBps)
		var ev *sim.Event
		var seq int64
		ev = sim.NewEvent(func(now sim.Time) {
			Send(now, &Packet{FlowID: flow, Seq: seq, Size: 125, Route: []Receiver{l, sink}})
			seq++
			s.Schedule(ev, now+gap)
		})
		s.Schedule(ev, 0)
	}
	emit(1, 1.5e6) // 150% of the link on its own
	emit(2, 0.75e6)
	s.Run(20 * sim.Second)
	// Flow 2's offered 0.75 Mb/s exceeds its fair share (0.5); both
	// backlogged flows should converge to ~50/50.
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("DRR shares not fair: %d vs %d (ratio %.2f)", counts[1], counts[2], ratio)
	}
}

type sinkCounter struct{ counts map[int]int }

func (c sinkCounter) Receive(now sim.Time, p *Packet) { c.counts[p.FlowID]++ }

// steadySink counts only packets emitted after a warm-up boundary.
type steadySink struct {
	counts map[int]int
	from   sim.Time
}

func (c steadySink) Receive(now sim.Time, p *Packet) {
	if p.SentAt >= c.from {
		c.counts[p.FlowID]++
	}
}

func TestFairQueueLongestQueueDrop(t *testing.T) {
	fq := NewFairQueue(4, 125)
	// Flow 1 fills the buffer.
	for i := int64(0); i < 4; i++ {
		if d := fq.Enqueue(0, fqPkt(1, i, 125)); d != nil {
			t.Fatal("premature drop")
		}
	}
	// Flow 2's arrival pushes out flow 1's tail.
	d := fq.Enqueue(0, fqPkt(2, 0, 125))
	if d == nil || d.FlowID != 1 {
		t.Fatalf("victim = %+v, want flow 1", d)
	}
	if fq.FlowLen(2) != 1 || fq.FlowLen(1) != 3 {
		t.Fatalf("queue lengths: %d/%d", fq.FlowLen(1), fq.FlowLen(2))
	}
	// Flow 1 (the longest) arriving at a full buffer is itself dropped.
	p := fqPkt(1, 99, 125)
	if d := fq.Enqueue(0, p); d != p {
		t.Fatalf("longest flow's arrival should drop, got %+v", d)
	}
}

// TestStolenBandwidth reproduces the Section 2.1.1 architectural argument.
// A large flow (rate 2r) is admitted onto an idle fair-queueing link and
// then many small flows (rate r) arrive. Under Fair Queueing each later
// arrival still sees a clean fair share, so all are admitted and the large
// flow's bandwidth is stolen: it suffers heavy loss although it probed an
// empty link. Under FIFO the same arrivals see the aggregate congestion,
// the overload is spread, and the large flow's probe verdict stays
// meaningful. Hence admission-controlled traffic must not be served by
// Fair Queueing. The test reaches below the scenario API on purpose: the
// argument is about router scheduling, not about a scenario.
func TestStolenBandwidth(t *testing.T) {
	const steadyFrom = 10 * sim.Second
	run := func(useFQ bool) float64 {
		s := sim.New()
		var q Discipline
		if useFQ {
			q = NewFairQueue(200, 125)
		} else {
			q = NewDropTail(200)
		}
		l := NewLink(s, "x", 1e6, sim.Millisecond, q)
		counts := map[int]int{}
		sent := map[int]int{}
		sink := steadySink{counts: counts, from: steadyFrom}
		emit := func(flow int, rateBps float64, start sim.Time) {
			// +/-20% jitter prevents the CBR sources from phase-locking
			// with each other at the drop-tail queue.
			rng := stats.NewStream(uint64(flow), "stolenbw")
			gap := float64(sim.Second) * 125 * 8 / rateBps
			var ev *sim.Event
			ev = sim.NewEvent(func(now sim.Time) {
				if now >= steadyFrom {
					sent[flow]++
				}
				Send(now, &Packet{FlowID: flow, Size: 125, Route: []Receiver{l, sink}})
				s.Schedule(ev, now+sim.Time(gap*rng.Uniform(0.8, 1.2)))
			})
			s.Schedule(ev, start)
		}
		// The large flow: 2r = 250 kb/s, admitted at t=0 on an idle link.
		emit(0, 250e3, 0)
		// Seven small flows at r = 125 kb/s arrive later (total offered
		// 112% of the link); with FQ, each sees its own fair share
		// unloaded and would be admitted.
		for i := 1; i <= 7; i++ {
			emit(i, 125e3, sim.Time(i)*sim.Second)
		}
		s.Run(40 * sim.Second)
		return 1 - float64(counts[0])/float64(sent[0])
	}
	fqLoss := run(true)
	fifoLoss := run(false)
	// Under FQ the large flow is squeezed to its fair share r, losing
	// ~half its packets; under FIFO the ~11% aggregate overload is shared.
	if fqLoss < 0.3 {
		t.Fatalf("FQ did not steal the large flow's bandwidth: loss=%.3f", fqLoss)
	}
	if fifoLoss > 0.25 {
		t.Fatalf("FIFO concentrated loss on the large flow: %.3f", fifoLoss)
	}
	if fqLoss < 2*fifoLoss {
		t.Fatalf("expected FQ >> FIFO for the large flow: FQ=%.3f FIFO=%.3f", fqLoss, fifoLoss)
	}
}

// TestMultiLevelService demonstrates the Section 2.1.3 rule: several data
// priority levels can coexist only because all probes share one (lowest)
// band. Under strict priority gold > silver > probes, gold data takes all
// it needs, silver keeps exactly the leftover capacity, and probes never
// displace either. A probe admitted at silver priority would later be
// crushed by gold admissions, so probes of every service level ride the
// lowest band.
func TestMultiLevelService(t *testing.T) {
	s := sim.New()
	q := NewPriorityPushout(50)
	l := NewLink(s, "ml", 1e6, sim.Millisecond, q)
	counts := map[int]int{}
	sink := sinkCounter{counts: counts}
	emit := func(flow int, band uint8, kind Kind, rateBps float64) {
		gap := sim.Time(float64(sim.Second) * 125 * 8 / rateBps)
		var ev *sim.Event
		ev = sim.NewEvent(func(now sim.Time) {
			Send(now, &Packet{FlowID: flow, Size: 125, Band: band, Kind: kind, Route: []Receiver{l, sink}})
			s.Schedule(ev, now+gap)
		})
		s.Schedule(ev, 0)
	}
	emit(0, BandData, Data, 0.9e6)    // gold: 90% of the link
	emit(1, BandDataLow, Data, 0.5e6) // silver: would need another 50%
	emit(2, BandProbe, Probe, 0.2e6)  // probes
	s.Run(20 * sim.Second)
	goldShare := float64(counts[0]) * 125 * 8 / 0.9e6 / 20
	if goldShare < 0.98 {
		t.Fatalf("gold data did not get its full rate: %.3f", goldShare)
	}
	if counts[1] == 0 {
		t.Fatal("silver completely starved despite leftover capacity")
	}
	silverRate := float64(counts[1]) * 125 * 8 / 20
	if silverRate > 0.15e6 {
		t.Fatalf("silver got %.0f b/s; gold should cap it near the leftover 100 kb/s", silverRate)
	}
	if counts[2] > counts[1] {
		t.Fatalf("probe band outran silver data: %d vs %d", counts[2], counts[1])
	}
}
