package scenario

import (
	"fmt"
	"math"

	"eac/internal/admission"
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/stats"
	"eac/internal/tcp"
	"eac/internal/trafgen"
)

// TCPShareConfig describes the Section 4.7 incremental-deployment
// experiment: 20 long-lived TCP Reno flows share one legacy drop-tail FIFO
// queue on the §4.1 link with endpoint admission-controlled EXP1 flows,
// which probe the simple 5 s way with in-band dropping (a legacy router has
// a single class, so in-band is the only possibility). TCP starts at time
// zero; admission-controlled flow arrivals begin at 50 s, and TCP's share
// of the link is reported every 10 s.
type TCPShareConfig struct {
	InterArrival float64  // default 3.5 s
	LifetimeSec  float64  // default 300 s
	Eps          float64  // acceptance threshold under test
	Duration     sim.Time // default 14000 s
	Seed         uint64
}

// The legacy router's fixed set-up.
const (
	tcpShareFlows    = 20
	tcpShareACStart  = 50 * sim.Second
	tcpShareInterval = 10 * sim.Second
)

// TCPShareResult holds the Figure 11 outputs.
type TCPShareResult struct {
	// Times and TCPUtil are the reporting-interval series: fraction of
	// the link capacity used by TCP goodput in each interval.
	Times   []float64
	TCPUtil []float64
	// MeanTCPUtil and MeanACUtil summarize the steady state (second half
	// of the run).
	MeanTCPUtil float64
	MeanACUtil  float64
	// ACBlocking is the admission-controlled blocking probability.
	ACBlocking float64
}

// tcpShareRunner glues the pieces; it reuses the flow bookkeeping shapes of
// Runner but with one shared legacy FIFO for all traffic.
type tcpShareRunner struct {
	cfg    TCPShareConfig
	ac     admission.Config
	preset trafgen.Preset
	s      *sim.Sim
	link   *netsim.Link
	pool   netsim.Pool

	senders []*tcp.Sender

	rngArr, rngLife, rngSrc *stats.RNG

	flows   []*tcpShareFlow
	arrived int64
	blocked int64

	acBitsSecondHalf int64 // AC data bits arriving at the sink in the run's second half
}

type tcpShareFlow struct {
	id     int
	prober *admission.Prober
	src    trafgen.Source
	route  []netsim.Receiver
	seq    int64
}

// RunTCPShare executes the experiment.
func RunTCPShare(cfg TCPShareConfig) (TCPShareResult, error) {
	// NaN and ±Inf pass every sign check; the run draws by these.
	for _, f := range []struct {
		field string
		v     float64
	}{{"InterArrival", cfg.InterArrival}, {"LifetimeSec", cfg.LifetimeSec},
		{"Eps", cfg.Eps}, {"Duration", cfg.Duration.Sec()}} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return TCPShareResult{}, fmt.Errorf("scenario: TCPShareConfig.%s = %g, want a finite number >= 0", f.field, f.v)
		}
	}
	// The §4.1 scenario resolves the zero fields, and gives the link and
	// the EXP1 class.
	base := Config{InterArrival: cfg.InterArrival, LifetimeSec: cfg.LifetimeSec, Duration: cfg.Duration}.WithDefaults()
	cfg.InterArrival, cfg.LifetimeSec, cfg.Duration = base.InterArrival, base.LifetimeSec, base.Duration
	ls, tcpCfg := base.Links[0], tcp.Config{}.WithDefaults()
	r := &tcpShareRunner{
		cfg:     cfg,
		ac:      admission.Config{Design: admission.DropInBand, Eps: cfg.Eps}.WithDefaults(),
		preset:  base.Classes[0].Preset,
		s:       sim.New(),
		rngArr:  stats.NewStream(cfg.Seed, "tcpshare-arrivals"),
		rngLife: stats.NewStream(cfg.Seed, "tcpshare-lifetimes"),
		rngSrc:  stats.NewStream(cfg.Seed, "tcpshare-sources"),
	}
	// Legacy router: one drop-tail FIFO shared by everything.
	r.link = netsim.NewLink(r.s, "legacy", ls.RateBps, ls.Delay, netsim.NewDropTail(ls.BufferPkts))
	r.link.OnDrop = func(now sim.Time, p *netsim.Packet) { r.pool.Put(p) }

	// TCP flows: IDs -1.. are not needed; they terminate at their own
	// receivers, so the shared sink never sees them.
	for i := 0; i < tcpShareFlows; i++ {
		sd := tcp.NewSender(r.s, tcpCfg, i, nil, &r.pool)
		rc := tcp.NewReceiver(r.s, sd, &r.pool)
		// Route: the shared legacy link, then the TCP receiver.
		sd.SetRoute([]netsim.Receiver{r.link, rc})
		r.senders = append(r.senders, sd)
		sd.Start(0)
	}

	r.s.Call(tcpShareACStart, r.onArrival)

	// Sample TCP goodput per interval.
	var res TCPShareResult
	lastAcked := int64(0)
	intervalBits := ls.RateBps * tcpShareInterval.Sec()
	var sampler func(now sim.Time)
	sampler = func(now sim.Time) {
		var acked int64
		for _, sd := range r.senders {
			acked += sd.AckedSegs
		}
		dBits := float64(acked-lastAcked) * float64(tcpCfg.SegSize*8)
		lastAcked = acked
		res.Times = append(res.Times, now.Sec())
		res.TCPUtil = append(res.TCPUtil, dBits/intervalBits)
		if now+tcpShareInterval <= cfg.Duration {
			r.s.Call(now+tcpShareInterval, sampler)
		}
	}
	r.s.Call(tcpShareInterval, sampler)

	r.s.Run(cfg.Duration)

	// Steady-state means over the second half of the run.
	half := len(res.TCPUtil) / 2
	var sum float64
	for _, u := range res.TCPUtil[half:] {
		sum += u
	}
	if n := len(res.TCPUtil) - half; n > 0 {
		res.MeanTCPUtil = sum / float64(n)
	}
	window := cfg.Duration - cfg.Duration/2
	res.MeanACUtil = float64(r.acBitsSecondHalf) / (ls.RateBps * window.Sec())
	if r.arrived > 0 {
		res.ACBlocking = float64(r.blocked) / float64(r.arrived)
	}
	return res, nil
}

func (r *tcpShareRunner) onArrival(now sim.Time) {
	gap := sim.Seconds(r.rngArr.Exp(r.cfg.InterArrival))
	if now+gap < r.cfg.Duration {
		r.s.Call(now+gap, r.onArrival)
	}

	f := &tcpShareFlow{id: len(r.flows)}
	r.flows = append(r.flows, f)
	f.route = []netsim.Receiver{r.link, (*tcpShareSink)(r)}
	r.arrived++
	f.prober = admission.NewProber(r.s, r.ac, f.id, r.preset.TokenRate, r.preset.PktSize,
		f.route, &r.pool, func(resu admission.Result) {
			if !resu.Accepted {
				r.blocked++
				return
			}
			f.src = r.preset.New(r.s, r.rngSrc, func(at sim.Time, size int) {
				pk := r.pool.Get()
				pk.FlowID = f.id
				pk.Kind = netsim.Data
				pk.Band = netsim.BandData
				pk.Size = size
				pk.Seq = f.seq
				pk.Route = f.route
				f.seq++
				netsim.Send(at, pk)
			})
			f.src.Start(r.s.Now())
			life := sim.Seconds(r.rngLife.Exp(r.cfg.LifetimeSec))
			r.s.CallIn(life, func(sim.Time) { f.src.Stop() })
		})
	f.prober.Start(now)
}

// tcpShareSink terminates admission-controlled packets.
type tcpShareSink tcpShareRunner

// Receive implements netsim.Receiver.
func (k *tcpShareSink) Receive(now sim.Time, p *netsim.Packet) {
	r := (*tcpShareRunner)(k)
	if p.Kind == netsim.Probe {
		f := r.flows[p.FlowID]
		if f.prober != nil {
			f.prober.OnProbeArrival(now, p)
		}
	} else if now >= r.cfg.Duration/2 {
		r.acBitsSecondHalf += int64(p.Bits())
	}
	r.pool.Put(p)
}
