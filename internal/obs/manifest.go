package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eac/internal/cache"
	"eac/internal/sim"
)

// ManifestSchema versions the manifest layout for downstream tooling.
// v2 adds shard-awareness: `shards` (the resolved shard count) and
// `shard_executed` (per-shard executed-event counts keyed by seed), plus
// the cache snapshot's `bypassed` note. v1 manifests remain readable —
// the new fields are additive and omitted when empty, as is `queue` (the
// event-queue ledger per seed and shard), added without a version bump.
const ManifestSchema = "eac/obs/manifest/v2"

// Manifest is the per-invocation run record written next to result CSVs,
// making a results directory self-describing: what was run, with which
// configuration and seeds, on how many workers, for how long, and what it
// produced.
type Manifest struct {
	Schema    string    `json:"schema"`
	CreatedAt time.Time `json:"created_at"`
	Command   []string  `json:"command,omitempty"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`

	// Workers is the resolved worker-pool size of the run.
	Workers int `json:"workers,omitempty"`
	// Shards is the resolved intra-run shard count (0 or 1 = serial).
	Shards int `json:"shards,omitempty"`
	// ShardExecuted records per-shard executed-event counts of sharded
	// runs, keyed by "s<seed>"; the slice is indexed by shard.
	ShardExecuted map[string][]uint64 `json:"shard_executed,omitempty"`
	// Queue records each run's event-queue ledger (sim.Counters: executed
	// events, schedules per tier, lane appends, high-water marks), keyed
	// by "s<seed>" and indexed by shard (one entry for a serial run).
	Queue map[string][]sim.Counters `json:"queue,omitempty"`
	// Seeds lists every seed simulated.
	Seeds []uint64 `json:"seeds,omitempty"`
	// WallSeconds is the invocation's wall-clock duration.
	WallSeconds float64 `json:"wall_seconds"`

	// Config carries the scenario/experiment parameters as flat
	// key-value pairs (free-form; keys are stable per producer).
	Config map[string]any `json:"config,omitempty"`
	// Summary carries headline result metrics.
	Summary map[string]any `json:"summary,omitempty"`
	// Artifacts lists files produced alongside this manifest (relative
	// to the manifest's directory unless absolute).
	Artifacts []string `json:"artifacts,omitempty"`
	// Cache records result-cache traffic (directory plus hit/miss/
	// corrupt/byte counters) when the invocation ran with a
	// content-addressed result store attached.
	Cache *cache.Snapshot `json:"cache,omitempty"`
}

// NewManifest returns a manifest stamped with the current process
// environment (wall clock, command line, Go version, CPU count).
func NewManifest() Manifest {
	return Manifest{
		Schema:    ManifestSchema,
		CreatedAt: time.Now().UTC(),
		Command:   os.Args,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
}

// Write marshals the manifest as indented JSON to path, creating parent
// directories as needed.
func (m Manifest) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
