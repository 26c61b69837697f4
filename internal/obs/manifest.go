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
// v2 adds the cache snapshot's `bypassed` note. v1 manifests remain
// readable — the field is additive and omitted when empty, as is `queue`
// (the event-queue ledger per seed), added without a version bump.
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
	// Queue records each run's event-queue ledger (sim.Counters: executed
	// events, schedules per tier, lane appends, high-water marks), keyed
	// by "s<seed>": one entry, an observed run being serial.
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
