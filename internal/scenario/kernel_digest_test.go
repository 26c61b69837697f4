package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

type digestCase struct {
	name string
	cfg  Config
	want string
}

// kernelDigestCases pins the run kernel's output bit for bit at every
// domain count it supports. The digests were recorded at the last commit
// that still had a separate serial Runner and sharded executor (32e15f7),
// so they are the evidence that the one kernel reproduces both — on the
// sharded path too, where the conformance suite only holds envelopes. They
// stood when netsim.Link went to one event per packet-hop (ResultsVersion
// v4: these ten runs hold no tie that changes a drop or a service order).
// All but hybrid/k1, whose data is fluid, were re-recorded once, at v5, for
// one field: MeanDelaySec became an integer sum of nanoseconds over a count
// and moved in its last bits (chain4/k1 0.028967174408510536 -> ...0851044).
// The parent commit with that accumulator patched in prints these digests,
// so booking data at a recording sink with no delivery event moved none.
// hybrid/k1 was re-recorded at v6, when the fluid population began to depart
// on one Exp(τ/N) clock with a uniform victim instead of per-flow lifetimes:
// the same law, another sample path (TestOracleFluidPopulation holds the law).
//
// The mbac/* and passive/* rows were recorded at d59863f, while those methods
// still decided outside admission.Policy, so they hold the router policies
// to the path they replaced.
//
// Cases that share a digest assert an identity: Shards 0, 1 and any count
// that clamps to one link are the same K = 1 run.
func kernelDigestCases() []digestCase {
	chain := func(links, shards int) Config {
		c := shardChainConfig(links)
		c.Shards = shards
		return c
	}
	single := func(shards int) Config {
		return Config{Duration: 20 * sim.Second, Warmup: 5 * sim.Second,
			InterArrival: 0.5, LifetimeSec: 60, PrepopulateUtil: 0.5, Seed: 3, Shards: shards}
	}
	metro := func(shards int) Config {
		c := MetroStar(MetroStarOptions{Chains: 3, Hops: 2, Hosts: 600})
		c.Duration = 8 * sim.Second
		c.Warmup = 2 * sim.Second
		c.Drain = sim.Second
		c.Seed = 5
		c.Shards = shards
		return c
	}
	// A router method on a loaded link: it rejects, so its row pins its
	// decision and not only its taps.
	router := func(m Method, c Config) Config {
		c.Method = m
		c.PrepopulateUtil = 0.95
		c.InterArrival = 0.2
		return c
	}
	return []digestCase{
		{"chain4/k1", chain(4, 0), "2e581f72ae7f3f0205a1e8ed9c2115455ab08fca33b64496a0c01dcd94e3b451"},
		{"chain4/k2", chain(4, 2), "736b042a3946f2ca8670fb739e7871e259e4a265177d380e75da826f0adee675"},
		{"chain4/k3", chain(4, 3), "0d47b82c580168d618e84c0c3866ccfa6964d7888f71ca3cabd5f26c6ae114a0"},
		{"chain3/shards0", chain(3, 0), "e817c5db9e36f14f44bc215338119acc15d0bf6fe4597d1586acb1194ec0f842"},
		{"chain3/shards1", chain(3, 1), "e817c5db9e36f14f44bc215338119acc15d0bf6fe4597d1586acb1194ec0f842"},
		{"single/shards0", single(0), "5b677d13abc5fc19b20d9cb13b3d2b25723e15abf5eedd040b83075ffc6121cf"},
		{"single/shards8", single(8), "5b677d13abc5fc19b20d9cb13b3d2b25723e15abf5eedd040b83075ffc6121cf"},
		{"metro/k1", metro(1), "6b588f7e5a658be0c9eccad2f11f047b280b04a6adfb1a6a1302461952a15a83"},
		{"metro/k2", metro(2), "486d111460a9fd84a450736fa90fb10b20253ec8b5945f11dde986518fe760a3"},
		{"hybrid/k1", hybridCfg(1), "85816fa74d1ae32802311dc785a51e4d2d44dd3a2dd2bc8dc9efe4a99d44ac3b"}, // v6
		{"mbac/single", router(MBAC, single(0)), "f86ec84fad9c5f8a3782aa47ded390842f4ced30510a347839b118ccd093dad3"},
		{"mbac/chain3", router(MBAC, chain(3, 0)), "ccb65c331d82597fe3e3f530021e5c0cf3c686670a126af6134d1a377cf02542"},
		{"passive/single", router(Passive, single(0)), "bcbca8e3660982aea7be35dbe0ae1fa28e93de14a322b786a637557d7606d9bd"},
		{"passive/chain3", router(Passive, chain(3, 0)), "780ada501c056c0a639f6b88e888c1e7858c185dca623014669debd166afb716"},
	}
}

func metricsDigest(t *testing.T, m Metrics) string {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestKernelDigests runs every case fresh (package Run) and on a Workspace
// that has just run the same structure under another seed, so the reset
// path is held to the same digest as construction. One Workspace serves
// the whole table: consecutive cases change K and topology under it.
//
// The obs half does the same for what a run writes, each artifact file
// held to its own digest.
func TestKernelDigests(t *testing.T) {
	reused := func(ws *Workspace, cfg Config) (Metrics, error) {
		warm := cfg
		warm.Seed++
		if _, err := ws.Run(warm); err != nil {
			return Metrics{}, err
		}
		return ws.Run(cfg)
	}
	ws := NewWorkspace()
	for _, tc := range kernelDigestCases() {
		fresh, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// A router row must reject some flow and differ from its config
		// under EAC, or it pins nothing of its method's decision.
		if m := tc.cfg.Method; m == MBAC || m == Passive {
			eac := tc.cfg
			eac.Method = EAC
			m, err := Run(eac)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.BlockingProb == 0 || metricsDigest(t, m) == tc.want {
				t.Errorf("%s: blocks %v, or pins its config under EAC", tc.name, fresh.BlockingProb)
			}
		}
		if got := metricsDigest(t, fresh); got != tc.want {
			t.Errorf("%s: fresh digest %s, want %s", tc.name, got, tc.want)
		}
		again, err := reused(ws, tc.cfg)
		if err != nil {
			t.Fatalf("%s: reused: %v", tc.name, err)
		}
		if got := metricsDigest(t, again); got != tc.want {
			t.Errorf("%s: reused-workspace digest %s, want %s", tc.name, got, tc.want)
		}
	}

	for _, tc := range obsDigestCases() {
		ws := NewWorkspace()
		for _, how := range []string{"fresh", "reused"} {
			dir := t.TempDir()
			cfg := tc.cfg(dir)
			cfg.Obs.PerfettoPath = filepath.Join(dir, "perfetto.json")
			var err error
			if how == "fresh" {
				_, err = Run(cfg)
			} else {
				_, err = reused(ws, cfg)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, how, err)
			}
			oc := cfg.Obs
			for i, p := range []string{oc.SeriesPath(cfg.Seed), oc.TraceFile(cfg.Seed),
				oc.SpansPath(cfg.Seed), oc.HistPath(cfg.Seed), oc.PerfettoPath} {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != tc.want[i] {
					t.Errorf("%s: %s %s digest %s, want %s", tc.name, how, artifactFiles[i], got, tc.want[i])
				}
				if has := traceHas[tc.name]; i == 1 && has != "" && !traceHolds(b, has) {
					t.Errorf("%s: %s trace holds no %s event", tc.name, how, has)
				}
			}
		}
	}
}

// artifactFiles names the columns of an obsDigestCase, in flush order.
var artifactFiles = [5]string{"series", "trace", "spans", "hist", "perfetto"}

type obsDigestCase struct {
	name string
	cfg  func(dir string) Config
	want [5]string // sha256 per artifactFiles entry
}

// traceHas names, per obs row that pins a link path, an event its trace must
// hold to pin it: "mark", or "drop/probe" for a drop of a probe packet.
var traceHas = map[string]string{
	"obs/mark-inband": "mark", "obs/vdrop-outofband": "drop/probe",
}

// traceHolds reports whether a JSONL trace holds an event "ev" or, written
// "ev/kind", one of that packet kind.
func traceHolds(trace []byte, has string) bool {
	ev, kind, _ := strings.Cut(has, "/")
	for _, line := range bytes.Split(trace, []byte("\n")) {
		var e struct{ Ev, Kind string }
		if json.Unmarshal(line, &e) == nil && e.Ev == ev && (kind == "" || e.Kind == kind) {
			return true
		}
	}
	return false
}

// obsDigestCases pins every artifact file of an observed run. The digests
// were recorded at 0f15220, when K = 1 files were written by their own
// writer; observability has since become K = 1 only, and the files are
// unchanged.
//
// obs/k1's hist was re-recorded at the commit that made netsim.Link finish
// transmissions lazily (ResultsVersion v4), marked "v4" below: an arrival at
// the instant a transmission ends is now enqueued after the next packet has
// left the queue, so the depth it records is one lower (L2's mean depth
// 1.0539 -> 1.0536; behind an equal-rate hop such ties are the common case).
//
// Its trace moved again, "v5", when links stopped spending an event on a
// recording last hop: a dequeue record is emitted when the link catches up,
// which it now does at other moments, so the 4096-record ring has dropped
// another oldest record by the end of the run — the file's first line, and
// no other, differs.
//
// obs/hybrid-k1 moved whole at v6, with hybrid/k1: its fluid flows depart on
// the population's one clock, so every file sees another sample path.
//
// obs/mark-inband and obs/vdrop-outofband were recorded at d59863f, while
// netsim.Link still kept a separate traced arrival path: they pin its mark
// and shadow-queue drop events.
func obsDigestCases() []obsDigestCase {
	chain := func(dir string) Config {
		cfg := obsChainCfg(4, dir)
		cfg.Obs.TraceCapacity = 1 << 12
		return cfg
	}
	// The fluid columns are non-zero only here. The adaptive policy runs,
	// but no epoch event is among the trace's last 16384 records;
	// TestTraceEpochEvent pins that event.
	hybrid := func(dir string) Config {
		cfg := hybridCfg(1)
		cfg.Policy.Kind = admission.PolicyEpochAdaptive
		cfg.Obs = obsChainCfg(1, dir).Obs
		return cfg
	}
	// A loaded link under a marking design: marks, and for virtual dropping
	// probe drops at the shadow queue, reach the trace's ring.
	marking := func(design admission.Design) func(string) Config {
		return func(dir string) Config {
			cfg := obsChainCfg(1, dir)
			cfg.AC.Design = design
			cfg.PrepopulateUtil = 0.95
			cfg.InterArrival = 0.2
			cfg.Obs.TraceCapacity = 1 << 20
			return cfg
		}
	}
	return []obsDigestCase{
		{"obs/k1", chain, [5]string{
			"0b249b7382a2c5bf006bacfc19ccf6619611204d90305fb9b7801bd49d03ee42",
			"b5b8cbe5c444980c31b7fb28a640709dd9d1fc09f6781cbfdccfdac2a06f4885", // v5
			"a5e85a652100130664a5050c1186b8e3fd85acf98ff5b6e14e96cf4782960202",
			"0ccfdfa21f7ed41a1c4ec0204c3a64445c5a085f75f2bd3664cca669c3e6c4e6", // v4
			"ded618361d6b611bcd5430dbc6d0d5475db49ba14fdb62c06cb2e1278e0b1453"}},
		{"obs/hybrid-k1", hybrid, [5]string{ // v6
			"bc0d775621652645fb98b774babe88235f916c8d38f5a4541c67a6e0b3a2921d",
			"6ccb0c380be943317abe22df409c159a6481797b95254063f58fe736e58423cd",
			"d623c9f22c987112a565e6e26bc37ecb021f1efeb5e968fcfcc77a7511e135da",
			"8efb4eac52936b23c325dfd1ba7142e3fa3d093c7649d4c59c3ce66c013d6b86",
			"6af194fcba7dfe2cf25e953269b8712990cf04e660b5dece9373368ca712da9a"}},
		{"obs/mark-inband", marking(admission.MarkInBand), [5]string{
			"9ec842ae72922c4e87ca556319dfbd0c882ccd6464bb0eb6a6a23434753d828b",
			"012cd8f05f64d813bd76802ccf880d427318473c240e0df6c56ff9061692b829",
			"4fd418d99a482817bdde5713e2dc4842fbe547f460fb6aee1f77d18cfdc55a1e",
			"03216cf172961f4d8b9b6e5faafe3d26ad9da2b9596bb19c110b9a45a6c0b5c2",
			"e4e808c7834e46a0d7b578fd360390582aa09653e02394c37640f05a9637254e"}},
		{"obs/vdrop-outofband", marking(admission.VDropOutOfBand), [5]string{
			"4c08ae43087b94d8917e8174571009d271cb18a08029d525b72754d4c123f72d",
			"6741d87d7ca22dbaabfc697c57536789b730bdbf6a89cc5b754b898c76a558d5",
			"1d05fad5e615b6a64b91fd1760cd843aea5364eafc17bd89c3193a129c5c3102",
			"d8c548f69d3d0c5eef7786ae9d690575514fab387353101555926851a42e233a",
			"d695b7b2ee42e4089304712d8dc1e662bb1cb4ce4f73ceec9202c982ccc21307"}},
	}
}

// TestProberRecyclingExecutedCounts pins the simulator's executed and
// scrubbed event counts on two K = 1 runs that recycle probers heavily: a
// 10 Mb/s link at prepopulate 0.9 with slow-start probing at ε 0.01, where
// early stops leave stage judges queued, alone and with two retries per
// flow. Which recycled prober a flow gets decides which stale judge its
// Reinit cancels, so the counts move with the reuse order while no metric
// need move; the Metrics digests alone would not see it. Each row runs
// fresh and on a reused Workspace. The counts were recorded at f791805,
// when the domain still kept its free probers in a slice of its own.
func TestProberRecyclingExecutedCounts(t *testing.T) {
	cfg := func(retries int) Config {
		return Config{
			Classes:         []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}},
			InterArrival:    0.35,
			LifetimeSec:     30,
			Method:          EAC,
			AC:              admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.01},
			PrepopulateUtil: 0.9,
			MaxRetries:      retries,
			Duration:        150 * sim.Second,
			Warmup:          30 * sim.Second,
			Seed:            1,
		}
	}
	for _, tc := range []struct {
		name               string
		cfg                Config
		executed, scrubbed uint64
	}{
		{"slowstart/prepop0.9", cfg(0), 1536435, 2677},
		{"slowstart/prepop0.9/retries2", cfg(2), 1669991, 4266},
	} {
		ws := NewWorkspace()
		for _, how := range []string{"fresh", "reused"} {
			if how == "reused" {
				warm := tc.cfg
				warm.Seed++
				if _, err := ws.Run(warm); err != nil {
					t.Fatal(err)
				}
			}
			_, rec, err := ws.RunRecorded(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if q := rec.Queue[0]; q.Executed != tc.executed || q.Scrubbed != tc.scrubbed {
				t.Errorf("%s %s: executed %d, scrubbed %d; want %d, %d",
					tc.name, how, q.Executed, q.Scrubbed, tc.executed, tc.scrubbed)
			}
		}
	}
}
