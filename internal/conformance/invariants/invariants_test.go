package invariants_test

import (
	"strings"
	"testing"

	"eac/internal/conformance/invariants"
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

func TestCheckerCollectsAndLimits(t *testing.T) {
	var c invariants.Checker
	if c.Err() != nil {
		t.Fatal("fresh checker reports violations")
	}
	c.Limit = 3
	for i := 0; i < 10; i++ {
		c.Violationf("violation %d", i)
	}
	err := c.Err()
	if err == nil {
		t.Fatal("violations not reported")
	}
	if len(c.Violations()) != 3 {
		t.Fatalf("limit not applied: %d recorded", len(c.Violations()))
	}
	if !strings.Contains(err.Error(), "and 7 more") {
		t.Fatalf("dropped count missing: %v", err)
	}
}

func TestClockMonotone(t *testing.T) {
	var c invariants.Checker
	w := c.Clock("test")
	w.Observe(5)
	w.Observe(5) // equal timestamps are fine
	w.Observe(7)
	if c.Err() != nil {
		t.Fatalf("monotone sequence flagged: %v", c.Err())
	}
	w.Observe(6)
	if c.Err() == nil {
		t.Fatal("backwards time not flagged")
	}
}

// misbehaving is a broken discipline: it accepts beyond its claimed
// capacity and loses a packet on every third enqueue without reporting a
// drop.
type misbehaving struct {
	q []*netsim.Packet
	n int
}

func (m *misbehaving) Enqueue(_ sim.Time, p *netsim.Packet) *netsim.Packet {
	m.n++
	if m.n%3 == 0 {
		return nil // swallowed: neither queued nor reported dropped
	}
	m.q = append(m.q, p)
	return nil
}

func (m *misbehaving) Dequeue() *netsim.Packet {
	if len(m.q) == 0 {
		return nil
	}
	p := m.q[0]
	m.q = m.q[1:]
	return p
}

func (m *misbehaving) Len() int { return len(m.q) }

func TestGuardCatchesBrokenDiscipline(t *testing.T) {
	var c invariants.Checker
	g := c.Guard("bad", &misbehaving{}, 2)
	for i := 0; i < 6; i++ {
		g.Enqueue(sim.Time(i), &netsim.Packet{})
	}
	err := c.Err()
	if err == nil {
		t.Fatal("broken discipline passed the guard")
	}
	msg := err.Error()
	if !strings.Contains(msg, "exceeds buffer") {
		t.Fatalf("capacity violation not reported: %v", msg)
	}
	if !strings.Contains(msg, "accepted arrival moved depth") {
		t.Fatalf("swallowed packet not reported: %v", msg)
	}
}

func TestGuardPassesRealDisciplines(t *testing.T) {
	disciplines := []struct {
		name string
		make func() netsim.Discipline
	}{
		{"droptail", func() netsim.Discipline { return netsim.NewDropTail(8) }},
		{"pushout", func() netsim.Discipline { return netsim.NewPriorityPushout(8) }},
	}
	for _, d := range disciplines {
		t.Run(d.name, func(t *testing.T) {
			var c invariants.Checker
			g := c.Guard(d.name, d.make(), 8)
			// Overfill with alternating bands, then drain; the guard checks
			// depth, drop semantics and conservation on every operation.
			for i := 0; i < 40; i++ {
				p := &netsim.Packet{Size: 125, Band: uint8(i % 2 * netsim.BandProbe)}
				g.Enqueue(sim.Time(i), p)
				if i%3 == 0 {
					g.Dequeue()
				}
			}
			for g.Dequeue() != nil {
			}
			enq, deq, drop := g.Counts()
			if enq != 40 || deq+drop != 40 {
				t.Fatalf("counts: enq=%d deq=%d drop=%d", enq, deq, drop)
			}
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckVirtualQueue(t *testing.T) {
	var c invariants.Checker
	vq := netsim.NewVirtualQueue(1e6, 1000)
	for i := 0; i < 50; i++ {
		vq.OnArrival(sim.Time(i)*sim.Millisecond, &netsim.Packet{Size: 125, Band: netsim.BandData})
		c.CheckVirtualQueue("vq", vq, 1000)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckTokenBucket(t *testing.T) {
	var c invariants.Checker
	tb := trafgen.NewTokenBucket(800e3, 25000)
	for i := 0; i < 200; i++ {
		tb.Conform(sim.Time(i)*sim.Millisecond, 1500)
		c.CheckTokenBucket("tb", tb, 25000)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// A checker must flag an out-of-range level.
	var c2 invariants.Checker
	c2.CheckTokenBucket("tb", tb, 10) // depth lie: level exceeds it
	if c2.Err() == nil {
		t.Fatal("over-depth token level not flagged")
	}
}

// TestCheckLinkQuiescent runs a real link to completion and verifies the
// drained-link conservation law (and that the check notices a cooked
// counter).
func TestCheckLinkQuiescent(t *testing.T) {
	s := sim.New()
	l := netsim.NewLink(s, "L", 1e6, sim.Millisecond, netsim.NewDropTail(4))
	var delivered int
	sink := recvFunc(func(now sim.Time, p *netsim.Packet) { delivered++ })
	route := []netsim.Receiver{l, sink}
	for i := 0; i < 50; i++ {
		p := &netsim.Packet{Size: 1250, Route: route}
		s.Call(sim.Time(i)*100*sim.Microsecond, func(now sim.Time) { netsim.Send(now, p) })
	}
	s.RunAll()
	var c invariants.Checker
	c.CheckLinkQuiescent(s.Now(), l)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if delivered == 0 || delivered == 50 {
		t.Fatalf("expected partial delivery through the full queue, got %d/50", delivered)
	}
	l.StatsAt(s.Now()).Dropped[netsim.Data]++ // cook the books
	var c2 invariants.Checker
	c2.CheckLinkQuiescent(s.Now(), l)
	if c2.Err() == nil {
		t.Fatal("cooked drop counter not flagged")
	}
}

type recvFunc func(now sim.Time, p *netsim.Packet)

func (f recvFunc) Receive(now sim.Time, p *netsim.Packet) { f(now, p) }

func TestGuardChecksPushoutBandSum(t *testing.T) {
	var c invariants.Checker
	q := netsim.NewPriorityPushout(4)
	g := c.Guard("pushout", q, 4)
	// Fill with probes, push them all out with data, overfill, drain —
	// the guard verifies total == sum(band lengths) after every step.
	for i := 0; i < 4; i++ {
		g.Enqueue(sim.Time(i), &netsim.Packet{Size: 125, Band: netsim.BandProbe, Kind: netsim.Probe})
	}
	for i := 0; i < 5; i++ {
		g.Enqueue(sim.Time(4+i), &netsim.Packet{Size: 125, Band: netsim.BandData})
	}
	for g.Dequeue() != nil {
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
