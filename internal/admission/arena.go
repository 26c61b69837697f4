package admission

import (
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Prober blocks double in size from one up to proberBlockMax, so an arena of
// one allocates exactly one prober and a large one a 64th of a block per
// prober. A prober's index is its block's number shifted by proberBlockBits
// plus its offset in the block.
const (
	proberBlockBits = 6
	proberBlockMax  = 1 << proberBlockBits
)

// ProberArena carves probers and their stage blocks from blocks, and runs
// every prober's events through one callback per event kind — the
// early-stop check, the stage end, the stage judge and the probe CBR's
// tick — which finds its prober by the event's argument
// (sim.Event.SetArg); the probe emit finds it by its CBR's id. A prober
// thus costs no closure of its own. The arena also keeps the free list of
// probers no flow is using, so a run allocates one generation of probers —
// those probing at once — not one per flow.
type ProberArena struct {
	s    *sim.Sim
	pool *netsim.Pool

	blocks    [][]Prober   // blocks[b][o] has index b<<proberBlockBits | o
	used      int          // probers carved from the last block
	stageSlab []probeStage // what is left of the current stage block
	free      []*Prober    // LIFO: Get pops what Put pushed last

	check, stage, judge, tick func(sim.Time)
	emit                      trafgen.FlowEmit

	// The block table's first backing array and the first block live in the
	// arena itself, so that NewProber's arena of one allocates neither.
	blockTab [8][]Prober
	first    [1]Prober
}

// NewProberArena returns an empty arena for probers that run on s and take
// their probe packets from pool.
func NewProberArena(s *sim.Sim, pool *netsim.Pool) *ProberArena {
	a := &ProberArena{s: s, pool: pool}
	a.blocks = append(a.blockTab[:0], a.first[:])
	a.check, a.stage, a.judge, a.tick = a.onCheck, a.onStage, a.onJudge, a.onTick
	a.emit = a.onEmit
	return a
}

// at returns the prober of index i.
func (a *ProberArena) at(i uint32) *Prober {
	return &a.blocks[i>>proberBlockBits][i&(proberBlockMax-1)]
}

func (a *ProberArena) onCheck(now sim.Time) { a.at(a.s.Arg()).periodicCheck(now) }
func (a *ProberArena) onStage(now sim.Time) { a.at(a.s.Arg()).endStage(now) }
func (a *ProberArena) onJudge(now sim.Time) { a.at(a.s.Arg()).judgeNext(now) }
func (a *ProberArena) onTick(now sim.Time)  { a.at(a.s.Arg()).cbr.Tick(now) }

func (a *ProberArena) onEmit(now sim.Time, id, size int) { a.at(uint32(id)).emit(now, size) }

// Get returns the prober Put last or, if none is free, a new one carved from
// the arena. Reinit it before Start.
func (a *ProberArena) Get() *Prober {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p
	}
	b := len(a.blocks) - 1
	if a.used == len(a.blocks[b]) {
		a.blocks = append(a.blocks, make([]Prober, min(2*a.used, proberBlockMax)))
		b, a.used = b+1, 0
	}
	p := &a.blocks[b][a.used]
	p.a, p.s, p.idx = a, a.s, uint32(b<<proberBlockBits|a.used)
	a.used++
	p.cbr.InitShared(a.s, 1, 1, a.emit, int(p.idx), a.tick) // re-parameterized by Reinit
	p.checkEv.Init(a.check)
	p.checkEv.SetArg(p.idx)
	p.stageEv.Init(a.stage)
	p.stageEv.SetArg(p.idx)
	return p
}

// Put hands back a prober whose flow no longer needs it. A judge its last
// probe left queued may still fire into it; the next user's Reinit cancels
// it.
func (a *ProberArena) Put(p *Prober) { a.free = append(a.free, p) }

// ForgetFree retires every free prober with ForgetEvents. Valid only
// together with a sim.Reset that wiped the old heap.
func (a *ProberArena) ForgetFree() {
	for _, p := range a.free {
		p.ForgetEvents()
	}
}

// carveStages gives p a block of n stages. When the slab runs short it
// starts a new one with room for a whole prober block of n-stage probers.
func (a *ProberArena) carveStages(p *Prober, n int) {
	if len(a.stageSlab) < n {
		k := len(a.blocks[len(a.blocks)-1]) * n
		a.stageSlab = make([]probeStage, k)
	}
	p.stages, a.stageSlab = a.stageSlab[:n:n], a.stageSlab[n:]
	for i := range p.stages {
		p.stages[i].judge.Init(a.judge)
		p.stages[i].judge.SetArg(p.idx)
	}
}
