package netsim_test

import (
	"testing"

	"eac/internal/conformance/invariants"
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/stats"
)

type countRecv int64

func (r *countRecv) Receive(now sim.Time, p *netsim.Packet) { *r++ }

// TestLinkInvariantsUnderLoad threads the invariants checker through a
// congested link: the discipline is wrapped by the guard (depth, drop
// semantics, conservation on every operation), the shadow queue is
// checked on every arrival, and the drained link must satisfy arrivals =
// sent + dropped end to end.
func TestLinkInvariantsUnderLoad(t *testing.T) {
	var c invariants.Checker
	s := sim.New()
	const bufPkts = 20
	guard := c.Guard("L0", netsim.NewPriorityPushout(bufPkts), bufPkts)
	l := netsim.NewLink(s, "L0", 1e6, 5*sim.Millisecond, guard)
	const vqCap = int64(bufPkts * 125)
	l.Marker = netsim.NewVirtualQueue(0.9e6, vqCap)

	var delivered countRecv
	route := []netsim.Receiver{l, &delivered}
	rng := stats.NewStream(7, "link-invariants")
	// Offer ~2x the link rate in bursts so both the real queue and the
	// shadow queue overflow, exercising drop, push-out and mark paths.
	var emit func(now sim.Time)
	sent := 0
	emit = func(now sim.Time) {
		for i := 0; i < 4; i++ {
			kind := netsim.Data
			band := uint8(netsim.BandData)
			if rng.Bool(0.3) {
				kind = netsim.Probe
				band = netsim.BandProbe
			}
			p := &netsim.Packet{Size: 125, Kind: kind, Band: band, Route: route}
			netsim.Send(now, p)
			sent++
		}
		c.CheckVirtualQueue("L0 vq", l.Marker, vqCap)
		if sent < 4000 {
			s.Call(now+sim.Seconds(rng.Exp(0.002)), emit)
		}
	}
	s.Call(0, emit)
	s.RunAll()

	c.CheckLinkQuiescent(s.Now(), l)
	enq, deq, drop := guard.Counts()
	if enq != int64(sent) {
		c.Violationf("guard saw %d arrivals, sent %d", enq, sent)
	}
	if deq != int64(delivered) {
		c.Violationf("dequeued %d but delivered %d", deq, delivered)
	}
	if int64(delivered)+drop != int64(sent) {
		c.Violationf("end-to-end conservation: sent=%d delivered=%d dropped=%d", sent, delivered, drop)
	}
	if drop == 0 {
		t.Fatal("load did not overflow the queue; invariant coverage too weak")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
