package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"eac/internal/sim"
	"eac/internal/stats"
)

// testLink is what the differential tests and the oracle need of a link
// under test; Link and refLink both satisfy it.
type testLink interface {
	Receiver
	attach(m *VirtualQueue, vdrop, boundary bool, onDrop func(sim.Time, *Packet))
	statsAt(now sim.Time) LinkStats
}

func (l *Link) statsAt(now sim.Time) LinkStats { return *l.StatsAt(now) }

func (l *refLink) statsAt(sim.Time) LinkStats { return l.Stats }

func (l *Link) attach(m *VirtualQueue, vdrop, boundary bool, onDrop func(sim.Time, *Packet)) {
	l.Marker, l.VQDropProbes, l.Boundary, l.OnDrop = m, vdrop, boundary, onDrop
}

func (l *refLink) attach(m *VirtualQueue, vdrop, boundary bool, onDrop func(sim.Time, *Packet)) {
	l.Marker, l.VQDropProbes, l.Boundary, l.OnDrop = m, vdrop, boundary, onDrop
}

type linkMaker func(s *sim.Sim, rateBps float64, delay sim.Time, q Discipline) testLink

func makeLink(s *sim.Sim, rateBps float64, delay sim.Time, q Discipline) testLink {
	return NewLink(s, "dut", rateBps, delay, q)
}

func makeRefLink(s *sim.Sim, rateBps float64, delay sim.Time, q Discipline) testLink {
	return newRefLink(s, rateBps, delay, q)
}

// makeRuleRefLink builds the reference link with Link's tie rule imposed.
func makeRuleRefLink(s *sim.Sim, rateBps float64, delay sim.Time, q Discipline) testLink {
	l := newRefLink(s, rateBps, delay, q)
	l.ruleAtTies = true
	return l
}

// diffCase is one queueing set-up the two links are compared under.
type diffCase struct {
	name   string
	q      func(seed uint64, hop int) Discipline
	marker bool // a VirtualQueue at 90 % of the link rate
	vdrop  bool // ... that drops the probes it would mark
}

var diffCases = []diffCase{
	{name: "DropTail", q: func(uint64, int) Discipline { return NewDropTail(12) }},
	{name: "PriorityPushout", q: func(uint64, int) Discipline { return NewPriorityPushout(12) }},
	{name: "RED", q: func(seed uint64, hop int) Discipline {
		return NewRED(24, REDConfig{MeanPktTime: 400 * sim.Microsecond},
			stats.NewStream(seed, fmt.Sprintf("red-%d", hop)))
	}},
	{name: "VirtualQueueMark", q: func(uint64, int) Discipline { return NewPriorityPushout(12) }, marker: true},
	{name: "VirtualQueueVDrop", q: func(uint64, int) Discipline { return NewPriorityPushout(12) }, marker: true, vdrop: true},
}

// diffHop is one link of a chain; the delays include 0 (delivery at txEnd
// itself) and one far below a service time.
type diffHop struct {
	rate  float64
	delay sim.Time
}

// In "3hop" the rates fall along the chain, so the inner hops queue and
// overflow and ties stay accidents. In "3hopEqRate" they are the rule: behind
// an equal-rate hop every back-to-back packet arrives at exactly the instant
// its predecessor's transmission ends. "2hopZeroLast" ends in a link with no
// propagation delay, where a recording endpoint is due at txEnd itself.
var diffChains = []struct {
	name string
	hops []diffHop
}{
	{"1hop", []diffHop{{10e6, 7 * sim.Millisecond}}},
	{"3hop", []diffHop{{10e6, 0}, {8e6, 7 * sim.Millisecond}, {6e6, 13 * sim.Microsecond}}},
	{"3hopEqRate", []diffHop{{10e6, 3 * sim.Millisecond}, {10e6, 0}, {10e6, sim.Millisecond}}},
	{"2hopZeroLast", []diffHop{{10e6, 2 * sim.Millisecond}, {8e6, 0}}},
}

// arrival is one generated input packet.
type arrival struct {
	at   sim.Time
	size int
	band int
	kind Kind
}

// genArrivals draws n packets with mixed sizes and bands, arriving in bursts
// (several at one instant) separated by gaps around the first hop's service
// time, so the chain sits near saturation: queues fill, drain and overflow.
func genArrivals(seed uint64, n int, rate float64) []arrival {
	rng := stats.NewStream(seed, "diff-arrivals")
	sizes := [...]int{40, 125, 125, 552, 1000, 1500}
	meanSvc := 557 * 8 / rate // seconds per mean-size packet
	out := make([]arrival, 0, n)
	var now sim.Time
	for len(out) < n {
		burst := 1
		if rng.Bool(0.2) {
			burst += rng.Intn(6)
		}
		// Mean gap = burst x service time / 0.95, in three flavours: a wide
		// exponential, a narrow band around the mean, or exactly one service
		// time of the packet about to be sent (which lines arrivals up with
		// transmission ends — the tie the link's rule is about).
		gap := float64(burst) * meanSvc / 0.95
		switch rng.Intn(3) {
		case 0:
			now += sim.Seconds(rng.Exp(gap))
		case 1:
			now += sim.Seconds(rng.Uniform(0.8*gap, 1.2*gap))
		default:
			now += sim.Time(float64(sizes[rng.Intn(len(sizes))]*8) * float64(sim.Second) / rate)
		}
		for b := 0; b < burst && len(out) < n; b++ {
			a := arrival{at: now, size: sizes[rng.Intn(len(sizes))], band: BandData, kind: Data}
			switch rng.Intn(4) {
			case 0:
				a.band, a.kind = BandProbe, Probe
			case 1:
				a.band = BandDataLow
			}
			out = append(out, a)
		}
	}
	return out
}

// record is one observed packet fate: where (hop index; -1 = delivered to
// the sink), which packet, when, and whether it carried a mark.
type record struct {
	hop    int
	seq    int64
	at     sim.Time
	marked bool
}

// chainRun is the outcome of driving one chain with one input.
type chainRun struct {
	delivered []record   // at the sink, in arrival order
	dropped   [][]record // per hop, in drop order
	refs      []*refLink // the chain's links when built from refLink
	// stats holds each link's counters two thirds into the input — busy
	// links, transmissions in progress — and at the end.
	stats []LinkStats
	// fired counts the dispatches of the last link's one event (a Link's
	// only), piped the packets its sink got through Receive, and end is the
	// time of the run's last event.
	fired, piped int
	end          sim.Time
}

type recordSink struct{ out *[]record }

func (k recordSink) Receive(now sim.Time, p *Packet) {
	*k.out = append(*k.out, record{hop: -1, seq: p.Seq, at: now, marked: p.Marked})
}

// recorderSink is recordSink as the scenario's sink is a Recorder: data is
// booked, with its arrival time, when its last transmission starts, and the
// packet is wiped as a pool would wipe it — the link may not look at it
// again; probes take the pipe to Receive, which counts them.
type recorderSink struct {
	recordSink
	piped *int
}

func (k recorderSink) Receive(now sim.Time, p *Packet) {
	*k.piped++
	k.recordSink.Receive(now, p)
}

func (k recorderSink) Record(at sim.Time, p *Packet) bool {
	if p.Kind != Data {
		return false
	}
	k.recordSink.Receive(at, p)
	*p = Packet{}
	return true
}

// chainSink selects what ends the chain: a plain Receiver, a Recorder, or a
// Recorder behind a last link marked Boundary (which wakes at every txEnd and
// hands nothing over: the sink is no TxEndReceiver).
type chainSink int

const (
	plainSink chainSink = iota
	recSink
	recSinkBoundary
)

// runChain pushes in through a chain of links built by mk and records every
// delivery and every drop.
func runChain(mk linkMaker, c diffCase, hops []diffHop, seed uint64, in []arrival, sink chainSink) chainRun {
	s := sim.New()
	run := chainRun{dropped: make([][]record, len(hops))}
	route := make([]Receiver, 0, len(hops)+1)
	for h, hp := range hops {
		l := mk(s, hp.rate, hp.delay, c.q(seed, h))
		var m *VirtualQueue
		if c.marker {
			m = NewVirtualQueue(0.9*hp.rate, 12*1500)
		}
		h, last := h, h == len(hops)-1
		l.attach(m, c.vdrop, last && sink == recSinkBoundary, func(now sim.Time, p *Packet) {
			run.dropped[h] = append(run.dropped[h], record{hop: h, seq: p.Seq, at: now})
		})
		switch l := l.(type) {
		case *refLink:
			run.refs = append(run.refs, l)
		case *Link:
			if last {
				l.ev = sim.NewStreamEvent(func(now sim.Time) { run.fired++; l.onDeliver(now) })
			}
		}
		route = append(route, l)
	}
	links := route
	if sink == plainSink {
		route = append(route, recordSink{&run.delivered})
	} else {
		route = append(route, recorderSink{recordSink{&run.delivered}, &run.piped})
	}
	readStats := func(now sim.Time) {
		for _, l := range links {
			run.stats = append(run.stats, l.(testLink).statsAt(now))
		}
	}
	s.Call(in[len(in)*2/3].at+1, readStats) // +1: off the arrival instant, where a tie could sit

	inject(s, in, func(int) []Receiver { return route })
	s.RunAll()
	run.end = s.Now()
	readStats(s.Now())
	// A Recorder books in the order the link catches up, ahead of the clock;
	// one link delivers no two packets at one instant, so time order is
	// arrival order.
	slices.SortStableFunc(run.delivered, func(a, b record) int { return cmp.Compare(a.at, b.at) })
	return run
}

// inject schedules the arrivals, packet i over route(i), with Seq = i. The
// injector is one event that re-arms itself, so its seq interleaves with the
// links' events the way a source's would.
func inject(s *sim.Sim, in []arrival, route func(i int) []Receiver) {
	next := 0
	var ev *sim.Event
	ev = sim.NewEvent(func(now sim.Time) {
		for ; next < len(in) && in[next].at == now; next++ {
			a := in[next]
			Send(now, &Packet{Seq: int64(next), Size: a.size, Band: a.band, Kind: a.kind, Route: route(next)})
		}
		if next < len(in) {
			s.Schedule(ev, in[next].at)
		}
	})
	s.Schedule(ev, in[0].at)
}

// diffRecords compares the records before time until (all of them when
// until < 0) and returns how many it compared, or the first difference.
func diffRecords(a, b []record, until sim.Time) (n int, diff string) {
	cut := func(r []record) []record {
		for i := range r {
			if until >= 0 && r[i].at >= until {
				return r[:i]
			}
		}
		return r
	}
	a, b = cut(a), cut(b)
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i, fmt.Sprintf("record %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return 0, fmt.Sprintf("%d vs %d records", len(a), len(b))
	}
	return len(a), ""
}

// TestLinkMatchesReference is the differential test against the link that
// was replaced: every delivery (seq, time, mark) and every drop (hop, seq,
// time) of Link equals refLink's, and so do the links' counters read in
// mid-run and at the end, on 1- and 3-hop chains, under every discipline and
// marker set-up, over 200 seeds each.
//
// The one place the two may differ is a tie — an arrival at exactly a
// transmission's end. Link completes the transmission first, always; refLink
// does whatever its events' seq says. So each seed is compared twice: with
// the reference as it was, up to the first tie it resolved the other way (the
// whole run when it has none), and with the reference made to follow the rule
// (ruleAtTies), in full, however many ties the input holds. Ties are counted
// and reported per case.
//
// A third run ends the chain in a Recorder — data booked when its last
// transmission starts, probes through the pipe — behind a last link that is
// marked Boundary on every other seed. It must reproduce the rule-following
// reference with its plain sink record for record, and its last link's event
// must fire no more than once per piped packet plus, for the recorded ones,
// once per propagation delay of elapsed time (each such wake-up is armed a
// delay past a transmission end that lies ahead of the clock, so two are more
// than a delay apart) — or once per packet where that is less, as on a
// zero-delay link. A boundary link wakes at every txEnd and is held to
// the records only.
func TestLinkMatchesReference(t *testing.T) {
	const seeds, pkts = 200, 3000
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	// compare returns the number of records of ref that got reproduces, all
	// of them before until.
	compare := func(t *testing.T, seed uint64, ref, got chainRun, until sim.Time) (n, drops int) {
		n, diff := diffRecords(ref.delivered, got.delivered, until)
		for h := 0; diff == "" && h < len(ref.dropped); h++ {
			var d int
			d, diff = diffRecords(ref.dropped[h], got.dropped[h], until)
			drops += d
		}
		if diff == "" && until < 0 && !slices.Equal(ref.stats, got.stats) {
			diff = fmt.Sprintf("link counters %+v vs %+v", ref.stats, got.stats)
		}
		if diff != "" {
			t.Fatalf("seed %d differs (reference vs link, compared until %v): %s", seed, until, diff)
		}
		return n + drops, drops
	}
	for _, chain := range diffChains {
		for _, c := range diffCases {
			t.Run(chain.name+"/"+c.name, func(t *testing.T) {
				var full, asWas, withRule, drops, arrivals, tiesDone, tiesArr int
				var recorded, piped, fired, firedMax int
				lastDelay := chain.hops[len(chain.hops)-1].delay
				for seed := uint64(1); seed <= seeds; seed++ {
					in := genArrivals(seed, pkts, chain.hops[0].rate)
					got := runChain(makeLink, c, chain.hops, seed, in, plainSink)

					ruled := runChain(makeRuleRefLink, c, chain.hops, seed, in, plainSink)
					n, d := compare(t, seed, ruled, got, -1)
					withRule += n
					drops += d

					sink := recSink + chainSink(seed%2)
					rec := runChain(makeLink, c, chain.hops, seed, in, sink)
					compare(t, seed, ruled, rec, -1)
					if sink == recSink {
						booked := len(rec.delivered) - rec.piped
						bound := rec.piped + booked
						if lastDelay > 0 {
							bound = rec.piped + min(booked, int((rec.end-in[0].at)/lastDelay)+1)
						}
						if rec.fired > bound {
							t.Fatalf("seed %d: the last link's event fired %d times for %d piped and %d recorded packets in %v, want <= %d",
								seed, rec.fired, rec.piped, booked, rec.end-in[0].at, bound)
						}
						recorded, piped, fired, firedMax = recorded+booked, piped+rec.piped, fired+rec.fired, firedMax+bound
					}

					ref := runChain(makeRefLink, c, chain.hops, seed, in, plainSink)
					until := sim.Time(-1)
					for _, r := range ref.refs {
						tiesDone += r.tiesDoneFirst
						tiesArr += r.tiesArrivalFirst
						arrivals += int(r.Stats.Arrived[Data] + r.Stats.Arrived[Probe])
						if f := r.firstArrivalFirst; f >= 0 && (until < 0 || f < until) {
							until = f
						}
					}
					if until < 0 {
						full++
					}
					n, _ = compare(t, seed, ref, got, until)
					asWas += n
				}
				if drops == 0 || withRule < seeds*pkts || recorded == 0 || piped == 0 {
					t.Fatalf("vacuous: %d records compared, %d of them drops; %d recorded, %d piped", withRule, drops, recorded, piped)
				}
				t.Logf("recorder sink: 0 records differ; on the %d seeds with a plain last link its event fired %d times for %d piped + %d recorded packets (bound %d)",
					seeds/2, fired, piped, recorded, firedMax)
				if lastDelay >= sim.Millisecond && fired > piped+recorded/2 {
					t.Fatalf("a last link with %v of delay, several service times, woke for most of its recorded packets", lastDelay)
				}
				t.Logf("%d seeds, %d arrivals, %d at a tie (%d the reference resolved as the rule says, %d arrival-first); "+
					"0 of %d records (%d drops) differ from the reference under the rule, 0 of %d from the reference as it was (%d seeds in full, the rest up to the first arrival-first tie)",
					seeds, arrivals, tiesDone+tiesArr, tiesDone, tiesArr, withRule, drops, asWas, full)
			})
		}
	}
}

// TestLinkTieRule pins the stated rule with a hand-built tie: a transmission
// that ends at t is complete before an arrival at t is enqueued, whatever
// order the events were scheduled in. A is in service until 1 ms, B fills
// the one-packet buffer, C arrives at exactly 1 ms: B must have left the
// queue for the wire, so C finds room. The arrival is scheduled before
// anything else exists — the lowest seq there is, the order in which the
// two-event link enqueued C first and dropped it (checked, so the test
// shows the case is a real one).
func TestLinkTieRule(t *testing.T) {
	run := func(mk linkMaker) (delivered []record, dropped int) {
		s := sim.New()
		l := mk(s, 1e6, 0, NewDropTail(1))
		l.attach(nil, false, false, func(sim.Time, *Packet) { dropped++ })
		route := []Receiver{l, recordSink{&delivered}}
		s.Call(sim.Millisecond, func(now sim.Time) { Send(now, &Packet{Seq: 2, Size: 125, Route: route}) })
		s.Call(0, func(now sim.Time) {
			Send(now, &Packet{Seq: 0, Size: 125, Route: route})
			Send(now, &Packet{Seq: 1, Size: 125, Route: route})
		})
		s.RunAll()
		return
	}
	got, dropped := run(makeLink)
	want := []record{{hop: -1, seq: 0, at: sim.Millisecond}, {hop: -1, seq: 1, at: 2 * sim.Millisecond}, {hop: -1, seq: 2, at: 3 * sim.Millisecond}}
	if _, diff := diffRecords(want, got, -1); diff != "" || dropped != 0 {
		t.Fatalf("tie not resolved transmission-end first: %d dropped, %s", dropped, diff)
	}
	if _, refDropped := run(makeRefLink); refDropped != 1 {
		t.Fatalf("reference link dropped %d at the tie, want 1: the hand-built case is not a tie any more", refDropped)
	}
}

// TestLinkWakesBehindRecordedPackets is the case a link without a wake-up
// bound gets wrong: two data packets and a probe arrive together and nothing
// arrives after them. The data is booked at the recording sink when its
// transmission starts, so the pipe stays empty while the link is busy — and
// the probe behind it must still be started at the second txEnd and delivered
// at 3 ms + 2 ms on the dot, by the link's own event: armed no later than
// txEnd + Delay while busy, it wakes once per propagation delay here (3 and
// 5 ms), not once per packet. Without the bound nothing is pending after the
// arrivals and the probe is never delivered (or, started by a late read of
// the link, is scheduled into the past).
func TestLinkWakesBehindRecordedPackets(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "dut", 1e6, 2*sim.Millisecond, NewPriorityPushout(8))
	fired := 0
	l.ev = sim.NewStreamEvent(func(now sim.Time) { fired++; l.onDeliver(now) })
	var got []record
	var probeAt, probeNow sim.Time
	piped := 0
	route := []Receiver{l, recorderSink{recordSink{&got}, &piped}}
	s.Call(0, func(now sim.Time) {
		Send(now, &Packet{Seq: 0, Size: 125, Route: route})
		Send(now, &Packet{Seq: 1, Size: 125, Route: route})
		Send(now, &Packet{Seq: 2, Size: 125, Kind: Probe, Band: BandProbe,
			Route: []Receiver{l, recvFunc(func(now sim.Time, p *Packet) { probeAt, probeNow = now, s.Now() })}})
	})
	s.RunAll()
	want := []record{{hop: -1, seq: 0, at: 3 * sim.Millisecond}, {hop: -1, seq: 1, at: 4 * sim.Millisecond}}
	if _, diff := diffRecords(want, got, -1); diff != "" || piped != 0 {
		t.Fatalf("recorded data: %s (%d piped)", diff, piped)
	}
	if probeAt != 5*sim.Millisecond || probeNow != probeAt {
		t.Fatalf("probe delivered at %v with the clock at %v, want 5 ms", probeAt, probeNow)
	}
	if st := l.StatsAt(s.Now()); st.SentPkts != [2]int64{2, 1} || st.SentBits != [2]int64{2000, 1000} || l.Busy(s.Now()) {
		t.Fatalf("link counters %+v, busy %v", st, l.Busy(s.Now()))
	}
	if fired != 2 {
		t.Fatalf("the link's event fired %d times, want 2 (at 3 and 5 ms)", fired)
	}
}

// handoffSink is a TxEndReceiver that checks custody is handed over at the
// transmission's end itself, not when the link next happens to look.
type handoffSink struct {
	s    *sim.Sim
	got  []record
	late int
}

func (h *handoffSink) Receive(sim.Time, *Packet) { panic("hand-off packet took the pipe") }
func (h *handoffSink) ReceiveTxEnd(txEnd, _ sim.Time, p *Packet) {
	if h.s.Now() != txEnd {
		h.late++
	}
	h.got = append(h.got, record{hop: 0, seq: p.Seq, at: txEnd})
}

// TestBoundaryLinkHandsOverAtTxEnd: on a boundary link carrying both
// hand-off traffic (next hop a TxEndReceiver) and pipe traffic, every
// hand-over happens at now == txEnd — that remaining propagation delay is
// the shard lookahead, and a pipe-bound packet completed lazily would
// otherwise start a hand-off packet whose txEnd has already passed — and
// hand-overs and deliveries equal the reference link's.
func TestBoundaryLinkHandsOverAtTxEnd(t *testing.T) {
	run := func(mk linkMaker, seed uint64) (*handoffSink, []record) {
		s := sim.New()
		l := mk(s, 10e6, 2*sim.Millisecond, NewPriorityPushout(12))
		l.attach(nil, false, true, nil)
		hs := &handoffSink{s: s}
		var delivered []record
		routes := [2][]Receiver{{l, hs}, {l, recordSink{&delivered}}}
		inject(s, genArrivals(seed, 3000, 10e6), func(i int) []Receiver {
			if i%3 == 1 {
				return routes[1] // every third packet takes the pipe
			}
			return routes[0]
		})
		s.RunAll()
		return hs, delivered
	}
	handed := 0
	for seed := uint64(1); seed <= 50; seed++ {
		refH, refD := run(makeRuleRefLink, seed)
		gotH, gotD := run(makeLink, seed)
		if gotH.late != 0 {
			t.Fatalf("seed %d: %d of %d hand-overs happened after txEnd", seed, gotH.late, len(gotH.got))
		}
		n, diff := diffRecords(refH.got, gotH.got, -1)
		if diff == "" {
			_, diff = diffRecords(refD, gotD, -1)
		}
		if diff != "" {
			t.Fatalf("seed %d differs (reference vs link): %s", seed, diff)
		}
		handed += n
	}
	if handed == 0 {
		t.Fatal("no hand-over was compared")
	}
}
