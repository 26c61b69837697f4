package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"eac/internal/obs"
	"eac/internal/sim"
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
// sharded path too, where the conformance suite only holds envelopes.
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
	return []digestCase{
		{"chain4/k1", chain(4, 0), "377290ae2357400fdcc7866f05a5557fb8ec1941f7a923b8187d73c8a5db3768"},
		{"chain4/k2", chain(4, 2), "2a6bc95d70c8c15529dd4dd7dc7ae628a4413f3a9428c99c1d897e81b3bec9b1"},
		{"chain4/k3", chain(4, 3), "b8c86a1a5c9fa42952bb9b253520bea0ea0c41e50a2e2c96cea88d8e6c013c58"},
		{"chain3/shards0", chain(3, 0), "b30c8ba561c268dd25e87e787633d35523ff97acc5666d65e654db6fd2256f77"},
		{"chain3/shards1", chain(3, 1), "b30c8ba561c268dd25e87e787633d35523ff97acc5666d65e654db6fd2256f77"},
		{"single/shards0", single(0), "b2f752c67621b34514fdbda62bbebd75ee05aca54df6137b22aad2aaa0eba9bf"},
		{"single/shards8", single(8), "b2f752c67621b34514fdbda62bbebd75ee05aca54df6137b22aad2aaa0eba9bf"},
		{"metro/k1", metro(1), "8b47cdbafa494a3fa02ff0e114234860792672473636e656fe835ab4368aca18"},
		{"metro/k2", metro(2), "bdc5af9a7df673190bf126e6e7e6ca5f117fa448127ee7fec56f4614dda9a6cf"},
		{"hybrid/k1", hybridCfg(1), "7a400346e1a2862d4b30b842190d62318cdd87e3056c510105a0bd9b508cb1b0"},
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
// The obs half does the same for the observability artifacts (series,
// trace, spans, histogram) of one K = 1 and one K = 2 run: K = 1 writes
// the serial formats, K = 2 the merged ones with shard provenance.
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

	for _, tc := range []struct {
		name   string
		shards int
		want   string
	}{
		{"obs/k1", 0, "8311b076d5aa63dfa0c1f1e73598b176abd8121d06fc9b03f4334d9945721c3d"},
		{"obs/k2", 2, "93753c6eb80a2d556c463b2afe2b1614c336f0b7634aa488b76ec03f17b5ec9d"},
	} {
		ws := NewWorkspace()
		for _, how := range []string{"fresh", "reused"} {
			cfg := obsShardCfg(4, tc.shards, t.TempDir())
			cfg.Obs.TraceCapacity = 1 << 12
			var err error
			if how == "fresh" {
				_, err = Run(cfg)
			} else {
				_, err = reused(ws, cfg)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, how, err)
			}
			if got := artifactDigest(t, cfg.Obs, cfg.Seed); got != tc.want {
				t.Errorf("%s: %s artifact digest %s, want %s", tc.name, how, got, tc.want)
			}
		}
	}
}

// artifactDigest hashes the run's artifact files, in flush order, each
// prefixed by its base name.
func artifactDigest(t *testing.T, oc obs.Config, seed uint64) string {
	t.Helper()
	paths := oc.AllArtifactPaths(seed)
	if len(paths) < 4 {
		t.Fatalf("expected series, trace, spans and hist artifacts, got %v", paths)
	}
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(p)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
