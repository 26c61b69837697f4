package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eac/internal/cache"
	"eac/internal/obs"
	"eac/internal/sim"
)

func cacheCfg(t *testing.T, seed uint64) (Config, *cache.Store) {
	t.Helper()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := reuseCfg(seed)
	cfg.Cache = store
	return cfg, store
}

// entryPath locates the on-disk entry for cfg's fingerprint.
func entryPath(store *cache.Store, cfg Config) string {
	key := cfg.Fingerprint()
	return filepath.Join(store.Dir(), key[:2], key)
}

// TestCacheServedRunIsByteIdentical: the cached grid must be
// indistinguishable from the recomputed one.
func TestCacheServedRunIsByteIdentical(t *testing.T) {
	cfg, store := cacheCfg(t, 3)
	plain := cfg
	plain.Cache = nil
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) || !reflect.DeepEqual(warm, want) {
		t.Fatalf("cache round trip altered metrics\nuncached: %+v\ncold:     %+v\nwarm:     %+v", want, cold, warm)
	}
	st := store.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 put", st)
	}

	// A different seed is a different key.
	other := cfg
	other.Seed = 99
	if _, err := Run(other); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Misses != 2 {
		t.Fatalf("distinct seed should miss: %+v", st)
	}
}

// TestCacheCorruptEntryRecomputed: a flipped byte fails the checksum; the
// run silently recomputes, counts the corruption, and repairs the slot.
func TestCacheCorruptEntryRecomputed(t *testing.T) {
	cfg, store := cacheCfg(t, 4)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := entryPath(store, cfg)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed metrics differ after corruption")
	}
	st := store.Stats()
	if st.Corrupt != 1 || st.Puts != 2 {
		t.Fatalf("stats = %+v, want 1 corrupt and a repairing second put", st)
	}
	// The repaired slot serves hits again.
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 1 {
		t.Fatalf("repaired entry did not hit: %+v", st)
	}
}

// TestCacheUndecodableEntryRecomputed: an entry that passes the checksum
// but does not decode as Metrics (stale shape under an unbumped salt) is
// discarded and recomputed.
func TestCacheUndecodableEntryRecomputed(t *testing.T) {
	cfg, store := cacheCfg(t, 5)
	key := cfg.Fingerprint()
	if err := store.Put(key, []byte("not json{")); err != nil {
		t.Fatal(err)
	}
	plain := cfg
	plain.Cache = nil
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("undecodable entry was not recomputed correctly")
	}
	if _, ok := store.Get(key); !ok {
		t.Fatal("recomputed result was not re-stored")
	}
}

// TestCacheBypassedWhileObserving: a cached result cannot produce the
// observability artifacts the caller asked for, so caching must disengage.
func TestCacheBypassedWhileObserving(t *testing.T) {
	cfg, store := cacheCfg(t, 6)
	if _, err := Run(cfg); err != nil { // populate the slot
		t.Fatal(err)
	}
	cfg.Obs = obs.Config{Enabled: true, Dir: t.TempDir(), Label: "t", MetricsInterval: sim.Second}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("observed run touched the cache: %+v", st)
	}
	// Workspace path honors the same bypass.
	ws := NewWorkspace()
	if _, err := ws.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 0 {
		t.Fatalf("workspace observed run hit the cache: %+v", st)
	}
}

// TestObsDisabledServedFromCache: Enabled is obs's only switch. A config
// that sets every other obs field but not Enabled is an unobserved run: the
// same Metrics, no artifact, and a result cache that serves it.
func TestObsDisabledServedFromCache(t *testing.T) {
	cfg, store := cacheCfg(t, 8)
	want, err := Run(cfg) // populate the slot
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg.Obs = obs.Config{Dir: dir, Label: "t", MetricsInterval: sim.Second, TraceCapacity: 1 << 10}
	got, rec, err := NewWorkspace().RunRecorded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disabled obs changed metrics:\nwant %+v\ngot  %+v", want, got)
	}
	if st := store.Stats(); st.Hits != 1 {
		t.Fatalf("disabled obs bypassed the cache: %+v", st)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 || rec.Artifacts != nil {
		t.Fatalf("disabled obs wrote %d file(s), artifacts %v", len(files), rec.Artifacts)
	}
}
