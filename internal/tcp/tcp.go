// Package tcp implements a compact packet-level TCP Reno model — slow
// start, congestion avoidance, duplicate-ACK fast retransmit with fast
// recovery, and exponential-backoff retransmission timeouts — sufficient
// for the paper's Section 4.7 incremental-deployment study, where 20
// long-lived TCP flows share a legacy drop-tail queue with
// admission-controlled traffic (a scenario class with TCPFlows set).
// Under random loss its goodput follows Mathis et al.'s square-root law
// (tcp_test.go's oracle).
//
// Simplifications relative to a production stack (and why they are safe
// here): the reverse (ACK) path is modeled as a fixed-delay pipe because
// the experiment's reverse path is uncongested; there is no delayed-ACK,
// flow-control window, or byte-level sequence space (segments are
// numbered). What matters for the experiment is the loss-driven AIMD
// sharing behaviour at the bottleneck, which these mechanisms do not
// change qualitatively.
package tcp

import (
	"eac/internal/netsim"
	"eac/internal/sim"
)

// Config parameterizes a Sender.
type Config struct {
	SegSize  int      // segment size in bytes (default 1000, as in ns)
	AckDelay sim.Time // one-way delay of the reverse path (default 20 ms)
	MinRTO   sim.Time // minimum retransmission timeout (default 1 s)
	MaxRTO   sim.Time // RTO backoff cap (default 64 s)
	MaxCwnd  float64  // congestion window cap in segments (default 128)
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.SegSize == 0 {
		c.SegSize = 1000
	}
	if c.AckDelay == 0 {
		c.AckDelay = 20 * sim.Millisecond
	}
	if c.MinRTO == 0 {
		c.MinRTO = sim.Second
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 64 * sim.Second
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 128
	}
	return c
}

// Sender is a greedy (always backlogged) TCP Reno source. Build one with
// NewSender, then Start it. Its packets carry Kind Data in BandData and are
// routed to the paired Receiver, which returns cumulative ACKs through a
// fixed-delay pipe.
type Sender struct {
	s      *sim.Sim
	cfg    Config
	flowID int
	route  []netsim.Receiver
	pool   *netsim.Pool

	// Congestion state (sequence numbers count segments).
	nextSeq  int64   // next new segment to send
	highAck  int64   // highest cumulative ACK received (next expected seq)
	cwnd     float64 // congestion window, segments
	ssthresh float64
	dupAcks  int
	inFR     bool  // in fast recovery
	recover  int64 // recovery point (Reno: highest seq sent at loss)

	rtoEv   *sim.Event
	rto     sim.Time
	backoff int

	srtt, rttvar sim.Time
	rttSeq       int64    // segment being timed (Karn's algorithm)
	rttSent      sim.Time // when it was sent
	rttValid     bool

	// AckedSegs counts cumulatively acknowledged segments — the goodput
	// measure used by the experiment.
	AckedSegs int64
	// Retransmits counts retransmitted segments.
	Retransmits int64
	// OnSend, if set, sees every segment just before it leaves: a
	// scenario stamps its class there and books it.
	OnSend func(now sim.Time, p *netsim.Packet)
}

// NewSender builds a TCP Reno sender for flow flowID whose data packets
// follow route (the last receiver must be the paired *Receiver).
func NewSender(s *sim.Sim, cfg Config, flowID int, route []netsim.Receiver, pool *netsim.Pool) *Sender {
	cfg = cfg.WithDefaults()
	sd := &Sender{
		s: s, cfg: cfg, flowID: flowID, route: route, pool: pool,
		cwnd: 1, ssthresh: cfg.MaxCwnd, rto: 3 * sim.Second,
	}
	sd.rtoEv = sim.NewEvent(sd.onTimeout)
	return sd
}

// Start begins transmission at time now.
func (sd *Sender) Start(now sim.Time) {
	sd.sendAllowed(now)
}

// SetRoute installs the data path. It must be called before Start when the
// route could not be supplied to NewSender (the paired Receiver needs the
// Sender first).
func (sd *Sender) SetRoute(route []netsim.Receiver) { sd.route = route }

// window returns the usable window in whole segments.
func (sd *Sender) window() int64 {
	w := int64(sd.cwnd)
	if w < 1 {
		w = 1
	}
	if w > int64(sd.cfg.MaxCwnd) {
		w = int64(sd.cfg.MaxCwnd)
	}
	return w
}

// sendAllowed transmits new segments permitted by the window.
func (sd *Sender) sendAllowed(now sim.Time) {
	for sd.nextSeq-sd.highAck < sd.window() {
		sd.transmit(now, sd.nextSeq, false)
		sd.nextSeq++
	}
}

// transmit emits one segment.
func (sd *Sender) transmit(now sim.Time, seq int64, isRetx bool) {
	pk := sd.pool.Get()
	pk.FlowID = sd.flowID
	pk.Kind = netsim.Data
	pk.Band = netsim.BandData
	pk.Size = int32(sd.cfg.SegSize)
	pk.Seq = seq
	pk.Route = sd.route
	if sd.OnSend != nil {
		sd.OnSend(now, pk)
	}
	netsim.Send(now, pk)
	if isRetx {
		sd.Retransmits++
	} else if !sd.rttValid {
		// Time one segment per round trip; never time retransmits.
		sd.rttValid = true
		sd.rttSeq = seq
		sd.rttSent = now
	}
	if !sd.rtoEv.Pending() {
		sd.s.Schedule(sd.rtoEv, now+sd.rto)
	}
}

// OnAck processes a cumulative ACK carrying the receiver's next expected
// sequence number.
func (sd *Sender) OnAck(now sim.Time, ackSeq int64) {
	if ackSeq > sd.highAck {
		newly := ackSeq - sd.highAck
		sd.AckedSegs += newly
		sd.highAck = ackSeq
		sd.dupAcks = 0
		sd.backoff = 0
		if sd.rttValid && ackSeq > sd.rttSeq {
			sd.updateRTT(now - sd.rttSent)
			sd.rttValid = false
		}
		if sd.inFR {
			if ackSeq > sd.recover {
				// Recovery complete (classic Reno exit).
				sd.inFR = false
				sd.cwnd = sd.ssthresh
			} else {
				// Partial ACK: retransmit the next hole, stay in
				// recovery (NewReno-style handling keeps the model from
				// stalling on multiple drops in one window).
				sd.transmit(now, ackSeq, true)
				sd.cwnd -= float64(newly) - 1 // deflate
				if sd.cwnd < 1 {
					sd.cwnd = 1
				}
			}
		} else if sd.cwnd < sd.ssthresh {
			sd.cwnd += float64(newly) // slow start
		} else {
			sd.cwnd += float64(newly) / sd.cwnd // congestion avoidance
		}
		if sd.cwnd > sd.cfg.MaxCwnd {
			sd.cwnd = sd.cfg.MaxCwnd
		}
		// Restart the retransmission timer.
		sd.s.Cancel(sd.rtoEv)
		if sd.nextSeq > sd.highAck {
			sd.s.Schedule(sd.rtoEv, now+sd.rto)
		}
		sd.sendAllowed(now)
		return
	}
	// Duplicate ACK.
	sd.dupAcks++
	if sd.inFR {
		sd.cwnd++ // inflate during recovery
		sd.sendAllowed(now)
		return
	}
	if sd.dupAcks == 3 {
		// Fast retransmit.
		flight := float64(sd.nextSeq - sd.highAck)
		sd.ssthresh = flight / 2
		if sd.ssthresh < 2 {
			sd.ssthresh = 2
		}
		sd.recover = sd.nextSeq - 1
		sd.inFR = true
		sd.cwnd = sd.ssthresh + 3
		sd.transmit(now, sd.highAck, true)
	}
}

func (sd *Sender) updateRTT(sample sim.Time) {
	if sd.srtt == 0 {
		sd.srtt = sample
		sd.rttvar = sample / 2
	} else {
		diff := sd.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		sd.rttvar = (3*sd.rttvar + diff) / 4
		sd.srtt = (7*sd.srtt + sample) / 8
	}
	sd.rto = sd.srtt + 4*sd.rttvar
	if sd.rto < sd.cfg.MinRTO {
		sd.rto = sd.cfg.MinRTO
	}
	if sd.rto > sd.cfg.MaxRTO {
		sd.rto = sd.cfg.MaxRTO
	}
}

// onTimeout handles RTO expiry.
func (sd *Sender) onTimeout(now sim.Time) {
	if sd.nextSeq <= sd.highAck {
		return // nothing outstanding
	}
	flight := float64(sd.nextSeq - sd.highAck)
	sd.ssthresh = flight / 2
	if sd.ssthresh < 2 {
		sd.ssthresh = 2
	}
	sd.cwnd = 1
	sd.dupAcks = 0
	sd.inFR = false
	sd.rttValid = false
	// Exponential backoff, capped: the doubling stops at MaxRTO, so no run of
	// timeouts can shift the RTO past the int64 range.
	if sd.rto<<sd.backoff < sd.cfg.MaxRTO {
		sd.backoff++
	}
	rto := min(sd.rto<<sd.backoff, sd.cfg.MaxRTO)
	sd.transmit(now, sd.highAck, true)
	sd.s.Cancel(sd.rtoEv)
	sd.s.Schedule(sd.rtoEv, now+rto)
}

// Cwnd returns the current congestion window (for tests).
func (sd *Sender) Cwnd() float64 { return sd.cwnd }

// Receiver terminates TCP segments, generates cumulative ACKs, and feeds
// them back to the sender through a fixed-delay pipe.
type Receiver struct {
	s      *sim.Sim
	sender *Sender
	pool   *netsim.Pool
	delay  sim.Time

	expect int64
	ooo    map[int64]bool // out-of-order segments received

	pipe   sim.Ring[pendingAck]
	pipeEv *sim.Event
}

type pendingAck struct {
	at  sim.Time
	ack int64
}

// NewReceiver builds the receiving endpoint paired to sender.
func NewReceiver(s *sim.Sim, sender *Sender, pool *netsim.Pool) *Receiver {
	r := &Receiver{
		s: s, sender: sender, pool: pool,
		delay: sender.cfg.AckDelay,
		ooo:   make(map[int64]bool),
	}
	r.pipeEv = sim.NewStreamEvent(r.deliverAcks)
	return r
}

// Receive implements netsim.Receiver.
func (r *Receiver) Receive(now sim.Time, p *netsim.Packet) {
	seq := p.Seq
	r.pool.Put(p)
	if seq == r.expect {
		r.expect++
		for r.ooo[r.expect] {
			delete(r.ooo, r.expect)
			r.expect++
		}
	} else if seq > r.expect {
		r.ooo[seq] = true
	}
	r.sendAck(now, r.expect)
}

func (r *Receiver) sendAck(now sim.Time, ack int64) {
	r.pipe.Push(pendingAck{at: now + r.delay, ack: ack})
	if !r.pipeEv.Pending() {
		r.s.Schedule(r.pipeEv, now+r.delay)
	}
}

func (r *Receiver) deliverAcks(now sim.Time) {
	for r.pipe.Len() > 0 && r.pipe.Front().at <= now {
		r.sender.OnAck(now, r.pipe.Pop().ack)
	}
	if r.pipe.Len() > 0 {
		r.s.Schedule(r.pipeEv, r.pipe.Front().at)
	}
}
