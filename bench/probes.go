package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/fluid"
	"eac/internal/netsim"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/sim/shard"
	"eac/internal/stats"
	"eac/internal/trafgen"
)

// Layer probes: each constructs one layer alone through its public
// constructors and times its public calls, at roughly the operating point
// the workloads put it in. They run with warm caches and nothing else in
// the heap, so a share built on them is an estimate, not a measurement, and
// is labelled so.

// probeReps is how often each probe repeats on fresh state; the median is
// reported.
const probeReps = 5

// probeBody performs a batch of operations and returns how many it did.
type probeBody func() int

// nsPerOp runs the body that setup returns, probeReps times on fresh state,
// and returns the median nanoseconds per operation.
func nsPerOp(setup func() probeBody) float64 {
	samples := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		body := setup()
		t0 := time.Now()
		n := body()
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// allocsPerOp counts heap allocations per operation over one body run.
func allocsPerOp(setup func() probeBody) float64 {
	body := setup()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := body()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// sink accumulates probe results the compiler must not discard.
var sink float64

type sinkFn func(now sim.Time, p *netsim.Packet)

func (f sinkFn) Receive(now sim.Time, p *netsim.Packet) { f(now, p) }

// holdProbe is the classic hold model: a steady population of depth pending
// events; each operation dispatches the earliest and schedules it again a
// random increment ahead, from outside the callback (pop plus push).
func holdProbe(depth, n int) func() probeBody {
	return func() probeBody {
		s := sim.New()
		rng := stats.NewRNG(1)
		var fired []*sim.Event
		for i := 0; i < depth; i++ {
			var e *sim.Event
			e = sim.NewEvent(func(sim.Time) { fired = append(fired, e) })
			s.Schedule(e, sim.Time(rng.Exp(1e6)))
		}
		return func() int {
			ops := 0
			for ops < n {
				when, _ := s.Peek()
				s.Run(when)
				for _, e := range fired {
					s.Schedule(e, when+1+sim.Time(rng.Exp(1e6)))
				}
				ops += len(fired)
				fired = fired[:0]
			}
			return ops
		}
	}
}

// reschedProbe has every event schedule its own successor from inside its
// callback, the simulator's replace-root path and the shape of source
// ticks, txDone and pipe delivery.
func reschedProbe(depth, n int) func() probeBody {
	return func() probeBody {
		s := sim.New()
		rng := stats.NewRNG(2)
		count, target := 0, 0
		for i := 0; i < depth; i++ {
			var e *sim.Event
			e = sim.NewEvent(func(now sim.Time) {
				if count++; count == target {
					s.Halt()
				}
				s.Schedule(e, now+1+sim.Time(rng.Exp(1e6)))
			})
			s.Schedule(e, sim.Time(rng.Exp(1e6)))
		}
		return func() int {
			target = count + n
			s.RunAll()
			return n
		}
	}
}

// cancelProbe schedules and cancels one event, leaving tombstones the
// dispatch loop skips in batches.
func cancelProbe(n int) func() probeBody {
	return func() probeBody {
		s := sim.New()
		x := sim.NewEvent(func(sim.Time) {})
		return func() int {
			for i := 0; i < n; i++ {
				s.Schedule(x, s.Now()+sim.Time(1+i%1024))
				s.Cancel(x)
				if i%1024 == 1023 {
					s.Run(s.Now() + 2048)
				}
			}
			s.Run(s.Now() + 2048)
			return n
		}
	}
}

func shardWindowProbe(windows int) func() probeBody {
	return func() probeBody {
		x := shard.NewExec[int](2, sim.Millisecond)
		for i := 0; i < 2; i++ {
			x.Shard(i).Deliver = func(sim.Time, int) {}
		}
		return func() int {
			x.Run(sim.Time(windows) * sim.Millisecond)
			return windows
		}
	}
}

// shardMsgProbe sends 256 messages per window from shard 0 to shard 1, so
// the barrier is amortised and the figure is Send, exchange, sort and
// delivery per message.
func shardMsgProbe(windows int) func() probeBody {
	return func() probeBody {
		x := shard.NewExec[int](2, sim.Millisecond)
		delivered := 0
		x.Shard(0).Deliver = func(sim.Time, int) {}
		x.Shard(1).Deliver = func(sim.Time, int) { delivered++ }
		sh0 := x.Shard(0)
		var tick *sim.Event
		tick = sim.NewEvent(func(now sim.Time) {
			for i := 0; i < 256; i++ {
				sh0.Send(1, now+sim.Millisecond, i)
			}
			sh0.Sim.Schedule(tick, now+sim.Millisecond)
		})
		sh0.Sim.Schedule(tick, sim.Millisecond)
		return func() int {
			x.Run(sim.Time(windows) * sim.Millisecond)
			return delivered
		}
	}
}

// linkProbe drives Poisson packet arrivals at the given load through hops
// 10 Mb/s PriorityPushout links to a sink. The figure is per packet end to
// end, the links' own events and the generator's event included. With
// probeEvery > 0 every probeEvery-th packet is an out-of-band probe, so an
// overloaded link pushes probes out for data.
func linkProbe(load float64, hops, probeEvery, n int) func() probeBody {
	return func() probeBody {
		s := sim.New()
		var pool netsim.Pool
		rng := stats.NewRNG(7)
		route := make([]netsim.Receiver, 0, hops+1)
		for i := 0; i < hops; i++ {
			l := netsim.NewLink(s, "probe", 10e6, sim.Millisecond, netsim.NewPriorityPushout(200))
			l.OnDrop = func(_ sim.Time, p *netsim.Packet) { pool.Put(p) }
			route = append(route, l)
		}
		route = append(route, sinkFn(func(_ sim.Time, p *netsim.Packet) { pool.Put(p) }))
		meanGapNs := 125 * 8 / 10e6 * 1e9 / load
		sent, target := 0, 0
		var src *sim.Event
		src = sim.NewEvent(func(now sim.Time) {
			p := pool.Get()
			p.Size, p.Route, p.Seq = 125, route, int64(sent)
			if probeEvery > 0 && sent%probeEvery == 0 {
				p.Kind, p.Band = netsim.Probe, netsim.BandProbe
			}
			netsim.Send(now, p)
			if sent++; sent < target {
				s.Schedule(src, now+1+sim.Time(rng.Exp(meanGapNs)))
			}
		})
		return func() int {
			target = sent + n
			s.Schedule(src, s.Now())
			s.RunAll()
			return n
		}
	}
}

func vqProbe(n int) func() probeBody {
	return func() probeBody {
		v := netsim.NewVirtualQueue(9e6, 200*125)
		p := &netsim.Packet{Size: 125}
		return func() int {
			now, marks := sim.Time(0), 0
			for i := 0; i < n; i++ {
				now += 100 * sim.Microsecond
				if v.OnArrival(now, p) {
					marks++
				}
			}
			sink += float64(marks)
			return n
		}
	}
}

func redProbe(n int) func() probeBody {
	return func() probeBody {
		q := netsim.NewRED(200, netsim.REDConfig{}, stats.NewRNG(3))
		pkts := make([]netsim.Packet, 256)
		return func() int {
			now := sim.Time(0)
			for i := 0; i < n; i++ {
				now += 100 * sim.Microsecond
				p := &pkts[i%len(pkts)]
				p.Size = 125
				q.Enqueue(now, p)
				if q.Len() > 40 {
					q.Dequeue()
				}
			}
			return n
		}
	}
}

func fluidBgProbe(n int) func() probeBody {
	return func() probeBody {
		s := sim.New()
		l := netsim.NewLink(s, "probe", 100e6, sim.Millisecond, netsim.NewPriorityPushout(400))
		bg := netsim.NewFluidBackground(l, fluid.QueueDropTail, 400, stats.NewRNG(5))
		bg.Add(0, 95e6)
		return func() int {
			now := sim.Time(0)
			for i := 0; i < n; i++ {
				now += sim.Millisecond
				d := 128e3
				if i&1 == 1 {
					d = -d
				}
				bg.Add(now, d)
			}
			sink += bg.Rate()
			return n
		}
	}
}

// sourceProbe runs 64 traffic sources into a no-op emit.
func sourceProbe(build func(*sim.Sim, *stats.RNG, trafgen.EmitFunc) trafgen.Source, n int) func() probeBody {
	return func() probeBody {
		s := sim.New()
		rng := stats.NewRNG(11)
		emitted, target := 0, 0
		emit := func(sim.Time, int) {
			if emitted++; emitted == target {
				s.Halt()
			}
		}
		for i := 0; i < 64; i++ {
			build(s, rng, emit).Start(0)
		}
		return func() int {
			target = emitted + n
			s.RunAll()
			return n
		}
	}
}

// proberProbe runs full slow-start probes over a loop-back route (the sink
// is the only hop, so nothing is lost) and returns ns per probe and per
// probe packet.
func proberProbe() (perProbe, perPkt float64) {
	const probers = 64
	var probeNs, pktNs []float64
	for rep := 0; rep < probeReps; rep++ {
		s := sim.New()
		var pool netsim.Pool
		cfg := admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.01}
		var sent int64
		for i := 0; i < probers; i++ {
			var pr *admission.Prober
			route := []netsim.Receiver{sinkFn(func(now sim.Time, p *netsim.Packet) {
				pr.OnProbeArrival(now, p)
				pool.Put(p)
			})}
			pr = admission.NewProber(s, cfg, i, 256e3, 125, route, &pool, func(res admission.Result) { sent += res.Sent })
			s.Call(sim.Time(i)*sim.Millisecond, pr.Start)
		}
		t0 := time.Now()
		s.RunAll()
		el := float64(time.Since(t0).Nanoseconds())
		probeNs = append(probeNs, el/probers)
		pktNs = append(pktNs, el/float64(sent))
	}
	return median(probeNs), median(pktNs)
}

// policyProbe times one Decide plus one Judge through the Policy interface,
// as the scenario calls them; one probe in four is rejected.
func policyProbe(pc admission.PolicyConfig, n int) func() probeBody {
	return func() probeBody {
		ac := admission.Config{Eps: 0.01}.WithDefaults()
		pol := admission.NewPolicy(pc, ac)
		if ea, ok := pol.(*admission.EpochAdaptive); ok {
			var arrived, dropped int64
			ea.SetLossSignal(func() (int64, int64) {
				arrived += 1000
				dropped += 5
				return arrived, dropped
			})
		}
		return func() int {
			now, acc := sim.Time(0), 0
			for i := 0; i < n; i++ {
				now += sim.Millisecond
				d := pol.Decide(admission.Request{Now: now, FlowID: i, BaseEps: ac.Eps})
				out := pol.Judge(now, admission.Observation{
					Res:      admission.Result{Accepted: i&3 != 0, Fraction: 0.03},
					Attempts: 1, Eps: d.Eps,
				})
				acc += int(out)
			}
			sink += float64(acc)
			return n
		}
	}
}

func replayProbe(lines int) func() probeBody {
	var buf bytes.Buffer
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&buf, "{\"t\":%g,\"ev\":\"arrival\",\"flow\":%d,\"class\":0}\n", float64(i)*0.35, i)
	}
	return func() probeBody {
		return func() int {
			rt, err := scenario.ParseReplay(bytes.NewReader(buf.Bytes()), "probe")
			if err != nil {
				return 1
			}
			return rt.Len()
		}
	}
}

func cacheKey(i int) string { return fmt.Sprintf("%016x", uint64(i+1)*0x9E3779B97F4A7C15) }

// runProbes executes every layer probe and returns the metrics by name.
// dir is a scratch directory for the cache probes.
func runProbes(tr *tracer, parent int, dir string) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit, N: probeReps} }
	timeIt := func(name, unit string, setup func() probeBody) {
		tr.do("probe."+name, parent, func() { put(name, unit, nsPerOp(setup)) })
	}
	parallel := runtime.GOMAXPROCS(0) >= 2

	timeIt("sim.hold_ns_d256", "ns", holdProbe(256, 200000))
	timeIt("sim.hold_ns_d32k", "ns", holdProbe(32768, 200000))
	timeIt("sim.resched_ns", "ns", reschedProbe(256, 300000))
	timeIt("sim.cancel_ns", "ns", cancelProbe(300000))
	put("sim.allocs_per_op", "allocs/op", allocsPerOp(reschedProbe(256, 300000)))

	if parallel {
		timeIt("sim.shard.window_ns", "ns", shardWindowProbe(3000))
		timeIt("sim.shard.msg_ns", "ns", shardMsgProbe(200))
	} else {
		out["sim.shard.window_ns"] = unresolved("ns", "GOMAXPROCS < 2")
		out["sim.shard.msg_ns"] = unresolved("ns", "GOMAXPROCS < 2")
	}

	timeIt("netsim.link_pkt_ns", "ns", linkProbe(0.9, 1, 0, 100000))
	timeIt("netsim.link_pkt_ns_overload", "ns", linkProbe(1.2, 1, 5, 100000))
	timeIt("netsim.hop9_pkt_ns", "ns", linkProbe(0.5, 9, 0, 20000))
	timeIt("netsim.vq_arrival_ns", "ns", vqProbe(500000))
	timeIt("netsim.red_enqueue_ns", "ns", redProbe(500000))
	timeIt("netsim.fluidbg_add_ns", "ns", fluidBgProbe(200000))
	put("netsim.allocs_per_pkt", "allocs/pkt", allocsPerOp(linkProbe(0.9, 1, 0, 100000)))

	timeIt("trafgen.onoff_pkt_ns", "ns", sourceProbe(trafgen.EXP1.New, 300000))
	timeIt("trafgen.cbr_pkt_ns", "ns", sourceProbe(func(s *sim.Sim, _ *stats.RNG, emit trafgen.EmitFunc) trafgen.Source {
		return trafgen.NewCBR(s, 256e3, 125, emit)
	}, 300000))

	tr.do("probe.admission.probe_ns", parent, func() {
		perProbe, perPkt := proberProbe()
		put("admission.probe_ns", "ns", perProbe)
		put("admission.probe_pkt_ns", "ns", perPkt)
	})
	timeIt("admission.policy_static_ns", "ns", policyProbe(admission.PolicyConfig{}, 1000000))
	timeIt("admission.policy_epoch_ns", "ns", policyProbe(admission.PolicyConfig{
		Kind: admission.PolicyEpochAdaptive, Epoch: 10, TargetLoss: 0.005,
	}, 1000000))

	timeIt("fluid.markprob_ns", "ns", func() probeBody {
		return func() int {
			const n = 500000
			for i := 0; i < n; i++ {
				sink += fluid.MarkProb(fluid.QueueDropTail, 0.8+0.4*float64(i&255)/255, 400)
			}
			return n
		}
	})
	var solveErr error
	timeIt("fluid.solve_ns", "ns", func() probeBody {
		sv := fluid.NewSolver()
		return func() int {
			res, err := sv.Solve(fluid.Params{Tprobe: 3})
			if err != nil {
				solveErr = err
			}
			sink += res.Utilization
			return 1
		}
	})
	timeIt("fluid.transient_step_ns", "ns", func() probeBody {
		return func() int {
			const horizon, step = 100.0, 0.01
			res, err := fluid.SolveTransient(fluid.Transient{
				Params: fluid.Params{Tprobe: 3}, HorizonSec: horizon, StepSec: step,
			})
			if err != nil {
				solveErr = err
			}
			sink += res.Utilization
			return int(horizon / step)
		}
	})
	if solveErr != nil {
		return out, fmt.Errorf("fluid probe: %w", solveErr)
	}

	sch, err := scenario.ParseSchedule("const:33:1,spike:67:4,const:100:1,spike:67:4,hold")
	if err != nil {
		return out, err
	}
	timeIt("scenario.schedule_factor_ns", "ns", func() probeBody {
		return func() int {
			const n = 1000000
			for i := 0; i < n; i++ {
				sink += sch.FactorAt(float64(i % 400))
			}
			return n
		}
	})
	timeIt("scenario.replay_parse_ns", "ns", replayProbe(5000))

	payload := bytes.Repeat([]byte("x"), 1024)
	var cacheErr error
	cacheDirs := 0
	openCache := func() *cache.Store {
		cacheDirs++
		st, err := cache.Open(filepath.Join(dir, fmt.Sprintf("probe-cache-%d", cacheDirs)))
		if err != nil {
			cacheErr = err
		}
		return st
	}
	timeIt("cache.put_ns", "ns", func() probeBody {
		st := openCache()
		return func() int {
			const n = 300
			for i := 0; i < n; i++ {
				if err := st.Put(cacheKey(i), payload); err != nil {
					cacheErr = err
				}
			}
			return n
		}
	})
	timeIt("cache.get_hit_ns", "ns", func() probeBody {
		st := openCache()
		for i := 0; i < 64; i++ {
			if err := st.Put(cacheKey(i), payload); err != nil {
				cacheErr = err
			}
		}
		return func() int {
			const n = 3000
			for i := 0; i < n; i++ {
				if _, ok := st.Get(cacheKey(i % 64)); !ok {
					cacheErr = fmt.Errorf("cache probe: miss on a stored key")
				}
			}
			return n
		}
	})
	if cacheErr != nil {
		return out, cacheErr
	}

	timeIt("obs.tap_ns", "ns", func() probeBody {
		c := obs.New(obs.Config{Enabled: true, TraceCapacity: 4096}, 1)
		tap := c.RegisterLink("L0")
		return func() int {
			const n = 500000
			now := sim.Time(0)
			for i := 0; i < n; i++ {
				now += 100
				tap.Enqueue(now, i&1023, 0, 125, int64(i), i&63)
				tap.Dequeue(now, i&1023, 0, 125, int64(i), i&63)
			}
			return n
		}
	})
	timeIt("obs.decision_ns", "ns", func() probeBody {
		c := obs.New(obs.Config{Enabled: true, TraceCapacity: 4096}, 1)
		c.RegisterClass("EXP1")
		return func() int {
			const n = 500000
			now := sim.Time(0)
			for i := 0; i < n; i++ {
				now += 100
				c.Decision(now, i&4095, 0, i&1 == 0, 1, 0.01)
			}
			return n
		}
	})

	timeIt("stats.rng_exp_ns", "ns", func() probeBody {
		rng := stats.NewRNG(13)
		return func() int {
			const n = 2000000
			for i := 0; i < n; i++ {
				sink += rng.Exp(1)
			}
			return n
		}
	})
	timeIt("stats.loghist_add_ns", "ns", func() probeBody {
		var h stats.LogHist
		return func() int {
			const n = 2000000
			for i := 0; i < n; i++ {
				h.Add(int64(i&0xffff) * 997)
			}
			sink += float64(h.N())
			return n
		}
	})
	return out, nil
}
