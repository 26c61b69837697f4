package trafgen

import (
	"fmt"

	"eac/internal/sim"
	"eac/internal/stats"
)

// Preset describes one of the paper's Table 1 traffic sources: its token
// bucket parameters (which are also the probing parameters — hosts probe at
// the token rate r), packet size, average rate, and a constructor.
type Preset struct {
	Name        string
	TokenRate   float64 // r, bits/s (equals the burst rate for on-off sources)
	BucketBytes int     // b, bytes
	PktSize     int     // bytes
	AvgRate     float64 // long-run average rate, bits/s

	build func(s *sim.Sim, rng *stats.RNG, emit FlowEmit) Maker
}

// Maker constructs source instances of one preset on one simulator and RNG:
// the source it returns for id emits as id.
type Maker func(id int) Source

// New constructs a source instance of this preset.
func (pr Preset) New(s *sim.Sim, rng *stats.RNG, emit EmitFunc) Source {
	return pr.Maker(s, rng, func(now sim.Time, _, size int) { emit(now, size) })(0)
}

// HasSource reports whether the preset can build sources: the Table 1
// presets and NewCBRPreset's can, one filled in field by field cannot.
func (pr Preset) HasSource() bool { return pr.build != nil }

// Maker returns the constructor to use for many instances: what they share,
// emit included, is built once, here, instead of once per instance (see
// onOffMaker and cbrMaker).
func (pr Preset) Maker(s *sim.Sim, rng *stats.RNG, emit FlowEmit) Maker {
	return pr.build(s, rng, emit)
}

// expOnOff and paretoOnOff are the build functions of the on-off presets.
func expOnOff(burstBps float64, pktSize int, onMean, offMean float64) func(*sim.Sim, *stats.RNG, FlowEmit) Maker {
	return func(s *sim.Sim, rng *stats.RNG, emit FlowEmit) Maker {
		return newOnOffMaker(s, rng, burstBps, pktSize, expDur(rng, onMean), expDur(rng, offMean), emit)
	}
}

func paretoOnOff(burstBps float64, pktSize int, onMean, offMean, shape float64) func(*sim.Sim, *stats.RNG, FlowEmit) Maker {
	return func(s *sim.Sim, rng *stats.RNG, emit FlowEmit) Maker {
		return newOnOffMaker(s, rng, burstBps, pktSize, paretoDur(rng, shape, onMean), paretoDur(rng, shape, offMean), emit)
	}
}

// Table 1 of the paper. Burst and average rates are bits per second; the
// on-off sources use 125-byte packets and a 125-byte bucket; the video
// source uses 200-byte packets reshaped to (800 kb/s, 200 kb).
var (
	// EXP1: 256k burst, 500 ms on / 500 ms off, 128k average.
	EXP1 = Preset{
		Name: "EXP1", TokenRate: 256e3, BucketBytes: 125, PktSize: 125, AvgRate: 128e3,
		build: expOnOff(256e3, 125, 0.5, 0.5),
	}
	// EXP2: 1024k burst, 125 ms on / 875 ms off, 128k average.
	EXP2 = Preset{
		Name: "EXP2", TokenRate: 1024e3, BucketBytes: 125, PktSize: 125, AvgRate: 128e3,
		build: expOnOff(1024e3, 125, 0.125, 0.875),
	}
	// EXP3: 512k burst, 500 ms on / 500 ms off, 256k average.
	EXP3 = Preset{
		Name: "EXP3", TokenRate: 512e3, BucketBytes: 125, PktSize: 125, AvgRate: 256e3,
		build: expOnOff(512e3, 125, 0.5, 0.5),
	}
	// EXP4: 256k burst, 5000 ms on / 5000 ms off, 128k average.
	EXP4 = Preset{
		Name: "EXP4", TokenRate: 256e3, BucketBytes: 125, PktSize: 125, AvgRate: 128e3,
		build: expOnOff(256e3, 125, 5.0, 5.0),
	}
	// POO1: Pareto on/off, shape 1.2, otherwise as EXP1.
	POO1 = Preset{
		Name: "POO1", TokenRate: 256e3, BucketBytes: 125, PktSize: 125, AvgRate: 128e3,
		build: paretoOnOff(256e3, 125, 0.5, 0.5, 1.2),
	}
	// StarWars: synthetic VBR video reshaped by dropping to (800 kb/s,
	// 200 kb = 25000 bytes), 200-byte packets, standing in for the MPEG
	// trace used in the paper (see DESIGN.md for the substitution note).
	StarWars = Preset{
		Name: "StarWars", TokenRate: 800e3, BucketBytes: 25000, PktSize: 200, AvgRate: 360e3,
		build: func(s *sim.Sim, rng *stats.RNG, emit FlowEmit) Maker {
			return func(id int) Source {
				return NewVideo(s, rng, 200, NewTokenBucket(800e3, 25000).Shape(emit), id)
			}
		},
	}
)

// NewCBRPreset returns a constant-bit-rate preset with a one-packet token
// bucket. The fluid model of internal/fluid assumes each flow loads the
// link at exactly its rate r; cross-validation runs use this preset so the
// simulated traffic matches that assumption.
func NewCBRPreset(rateBps float64, pktSize int) Preset {
	return Preset{
		Name:      fmt.Sprintf("CBR-%.0fk", rateBps/1e3),
		TokenRate: rateBps, BucketBytes: pktSize, PktSize: pktSize, AvgRate: rateBps,
		build: func(s *sim.Sim, _ *stats.RNG, emit FlowEmit) Maker {
			m := &cbrMaker{s: s, rate: rateBps, pktSize: pktSize, emit: emit}
			return m.make
		},
	}
}

// cbrMaker builds the sources of a CBR preset the way onOffMaker builds
// on-off ones: carved from slabs with one tick callback per block, found by
// the event's argument, and recycled through a free list on Stop.
type cbrMaker struct {
	s       *sim.Sim
	rate    float64
	pktSize int
	emit    FlowEmit
	slab    []cbrSource // what is left of the current block
	tick    func(sim.Time)
	free    *cbrSource
}

// cbrSource is a CBR preset's source. The CBR alone cannot go back to a
// maker on Stop: a prober stops and restarts its probe CBR at every stage.
type cbrSource struct {
	CBR
	mk   *cbrMaker
	next *cbrSource // mk's free list while stopped
}

// make hands out a stopped source, or else carves one, emitting as id.
func (m *cbrMaker) make(id int) Source {
	c := m.free
	if c != nil {
		m.free, c.next = c.next, nil
	} else {
		if len(m.slab) == 0 {
			blk, s := make([]cbrSource, sourceSlab), m.s
			m.slab, m.tick = blk, func(now sim.Time) { blk[s.Arg()].Tick(now) }
		}
		c = &m.slab[0]
		c.InitShared(m.s, m.rate, m.pktSize, m.emit, 0, m.tick)
		c.ev.SetArg(uint32(sourceSlab - len(m.slab)))
		c.mk = m
		m.slab = m.slab[1:]
	}
	c.id = id
	return c
}

// Stop implements Source, and hands the source back to its maker.
func (c *cbrSource) Stop() {
	if c.active {
		c.CBR.Stop()
		c.next, c.mk.free = c.mk.free, c
	}
}

// Presets maps preset names to their definitions.
var Presets = map[string]Preset{
	"EXP1":     EXP1,
	"EXP2":     EXP2,
	"EXP3":     EXP3,
	"EXP4":     EXP4,
	"POO1":     POO1,
	"StarWars": StarWars,
}

// Lookup returns the named preset or an error listing valid names.
func Lookup(name string) (Preset, error) {
	if p, ok := Presets[name]; ok {
		return p, nil
	}
	return Preset{}, fmt.Errorf("trafgen: unknown preset %q (valid: EXP1 EXP2 EXP3 EXP4 POO1 StarWars)", name)
}
