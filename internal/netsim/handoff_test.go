package netsim

import (
	"encoding/json"
	"strings"
	"testing"

	"eac/internal/obs"
	"eac/internal/sim"
)

// txEndSink records ReceiveTxEnd handovers (a stand-in for the sharded
// executor's portal).
type txEndSink struct {
	n     int
	at    sim.Time
	delay sim.Time
}

func (s *txEndSink) Receive(now sim.Time, p *Packet) { s.n++ }
func (s *txEndSink) ReceiveTxEnd(txEnd, delay sim.Time, p *Packet) {
	s.n++
	s.at, s.delay = txEnd, delay
}

// TestLinkHandoffTraced: a boundary link with a tap emits one "handoff"
// event per cross-shard handover, stamped at transmission end (before
// the propagation delay), and the untapped boundary path is unchanged.
func TestLinkHandoffTraced(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "B", 1e6, 5*sim.Millisecond, NewDropTail(10))
	l.Boundary = true
	set := obs.NewMerged(obs.Config{Enabled: true, TraceCapacity: 8}, 1, 1)
	l.Tap = set.Collector(0).RegisterLink("B")
	sink := &txEndSink{}
	p := &Packet{Size: 125, Seq: 3, FlowID: 9, Kind: Probe, Band: BandProbe,
		Route: []Receiver{l, sink}}
	Send(0, p)
	s.RunAll()
	if sink.n != 1 || sink.at != sim.Millisecond || sink.delay != 5*sim.Millisecond {
		t.Fatalf("handover = %+v, want tx end at 1ms with 5ms residual delay", sink)
	}
	var b strings.Builder
	if err := set.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var handoff struct {
		T    float64 `json:"t"`
		Ev   string  `json:"ev"`
		Flow int     `json:"flow"`
		Kind string  `json:"kind"`
		Seq  int64   `json:"seq"`
	}
	var found bool
	for _, line := range lines {
		if err := json.Unmarshal([]byte(line), &handoff); err != nil {
			t.Fatal(err)
		}
		if handoff.Ev == "handoff" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no handoff event in trace:\n%s", b.String())
	}
	if handoff.T != 0.001 || handoff.Flow != 9 || handoff.Kind != "probe" || handoff.Seq != 3 {
		t.Fatalf("handoff event = %+v", handoff)
	}

	// An ordinary receiver on a boundary link takes the pipe: no handoff.
	s2 := sim.New()
	l2 := NewLink(s2, "B2", 1e6, 5*sim.Millisecond, NewDropTail(10))
	l2.Boundary = true
	set2 := obs.NewMerged(obs.Config{Enabled: true, TraceCapacity: 8}, 1, 1)
	l2.Tap = set2.Collector(0).RegisterLink("B2")
	plain := &countingSink{}
	Send(0, &Packet{Size: 125, Kind: Data, Band: BandData, Route: []Receiver{l2, plain}})
	s2.RunAll()
	var b2 strings.Builder
	if err := set2.WriteTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b2.String(), `"ev":"handoff"`) {
		t.Fatal("pipe delivery emitted a handoff event")
	}
	if plain.n != 1 {
		t.Fatalf("pipe delivery count = %d", plain.n)
	}
}
