// Package netsim provides the packet-level network elements used by the
// endpoint admission control study: packets, drop-tail and priority queue
// disciplines with push-out, a virtual-queue ECN marker, and links that
// serialize packets at a configured rate and deliver them after a fixed
// propagation delay.
//
// The model follows Section 3.2 of the paper: the admission-controlled
// traffic class is simulated as a queue served at the speed of its
// bandwidth limit, so a Link here represents that class's allocated share
// of a router's output port.
//
// A Link spends one event per packet-hop, the delivery, and none on a last hop
// whose endpoint only records (Recorder): the arrival time is known when the
// transmission starts and is booked then. No event ends a transmission: the
// link catches up (books what ended, starts the next packet at that txEnd) at
// each arrival, each firing of its one event and behind every read of its
// state. While busy that event is pending no later than txEnd + Delay, and a
// transmission that ends at t is complete before an arrival at t is enqueued.
// DESIGN.md §4c argues it; reflink_test.go keeps the two-event link this
// replaced as the tests' reference.
package netsim

import "eac/internal/sim"

// Kind distinguishes admission-controlled data packets from probe packets.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Probe
)

func (k Kind) String() string {
	if k == Probe {
		return "probe"
	}
	return "data"
}

// Priority bands within the admission-controlled class. With out-of-band
// probing, probe packets travel in BandProbe, strictly below data.
// BandDataLow exists for the Section 2.1.3 configuration, where several
// levels of admission-controlled data service coexist while all probe
// traffic shares the single lowest band.
const (
	BandData    = 0
	BandDataLow = 1
	BandProbe   = 2
	NumBands    = 3
)

// Receiver consumes packets, either to forward them (a Link) or to
// terminate them (a flow endpoint).
type Receiver interface {
	Receive(now sim.Time, p *Packet)
}

// Packet is one simulated packet. Packets are pooled; do not retain a
// packet after handing it to a Receiver or after freeing it.
//
// A packet is 64 bytes, one cache line (TestPacketSize), with the fields a
// hop reads first: a packet-hop then misses the cache once, not twice. The
// narrow fields bound what Config.Validate accepts: a route of at most
// MaxUint16 hops, probes of at most MaxUint16 stages, MaxInt32-byte packets.
type Packet struct {
	// Route is the sequence of receivers the packet visits; hop indexes
	// the next one. The final receiver is the terminating endpoint. The
	// route slice is shared and read-only: scenario hands every packet of
	// every flow of a class the same one.
	Route  []Receiver
	FlowID int
	Seq    int64    // per-flow, per-kind sequence number
	SentAt sim.Time // emission time at the source
	Size   int32    // bytes
	Class  int32    // traffic class index (for accounting away from the source)
	hop    uint16
	Stage  uint16 // probing stage that emitted this probe packet
	Kind   Kind
	Band   uint8 // priority band (0 highest)
	Marked bool
}

// Forward delivers the packet to its next hop, if any.
func (p *Packet) Forward(now sim.Time) {
	if int(p.hop) >= len(p.Route) {
		return
	}
	next := p.Route[p.hop]
	p.hop++
	next.Receive(now, p)
}

// nextHop returns the receiver the packet would visit next without
// advancing, or nil at the end of the route.
func (p *Packet) nextHop() Receiver {
	if int(p.hop) >= len(p.Route) {
		return nil
	}
	return p.Route[p.hop]
}

// Bits returns the packet size in bits.
func (p *Packet) Bits() int { return int(p.Size) * 8 }

// poolSlab is the arena block size: fresh packets are carved from
// contiguous []Packet slabs so the packets a run churns through stay
// cache-local instead of being scattered by individual allocations. A slab
// is 32 KB, which Go allocates page-aligned, so each packet fills one line;
// below 32 KB an 8-byte malloc header would split every packet over two.
const poolSlab = 512

// Pool is a freelist of packets over slab arenas. A pool (and everything
// carved from it) belongs to one simulation thread — a shard or a serial
// run — so no locking is needed. At steady state packet churn causes no
// allocation.
type Pool struct {
	free []*Packet
	slab []Packet // remainder of the current arena block
	// Allocated counts total packets ever allocated (for leak tests).
	Allocated int64
}

// Get returns a zeroed packet with the given route, starting at hop 0.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free = pl.free[:n-1]
		return p
	}
	if len(pl.slab) == 0 {
		pl.slab = make([]Packet, poolSlab)
	}
	p := &pl.slab[0]
	pl.slab = pl.slab[1:]
	pl.Allocated++
	return p
}

// Put recycles a packet.
func (pl *Pool) Put(p *Packet) {
	*p = Packet{}
	pl.free = append(pl.free, p)
}

// FreeLen returns the number of packets currently in the freelist.
func (pl *Pool) FreeLen() int { return len(pl.free) }

// Send injects a freshly built packet into its route.
func Send(now sim.Time, p *Packet) {
	p.hop = 0
	p.SentAt = now
	p.Forward(now)
}
