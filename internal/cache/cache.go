// Package cache is a content-addressed on-disk result cache for
// deterministic simulation cells.
//
// Every simulator run in this repository is a pure function of its fully
// resolved configuration and seed (the byte-identity tests pin this), so a
// run's metrics can be stored under a fingerprint of that configuration
// and replayed on the next sweep instead of recomputed. The store itself
// is deliberately value-agnostic: keys are hex fingerprints computed by
// the caller (scenario.Config.Fingerprint), values are opaque byte
// payloads (JSON-encoded scenario.Metrics). Each entry is written
// atomically (temp file + rename) and framed with a magic header, payload
// length, and CRC-32C checksum; a truncated, corrupt, or unreadable entry
// is detected on read, deleted, counted in Stats.Corrupt, and reported as
// a miss so the caller silently recomputes.
//
// The store is safe for concurrent use by the sweep engine's workers:
// counters are atomic, reads never see partially written entries (rename
// is atomic), and concurrent writers of the same key converge on identical
// bytes because the payload is a pure function of the key.
package cache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// magic frames every cache entry; the trailing digit versions the on-disk
// entry layout (bump it if the header format changes — the results-version
// salt in the key, not this, guards against semantic drift).
const magic = "EACRES1\n"

// headerLen is magic + uint32 payload length + uint32 CRC-32C.
const headerLen = len(magic) + 4 + 4

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Stats counts a store's traffic since Open. All fields are monotonic.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Corrupt      int64 `json:"corrupt"` // entries that failed the frame or checksum and were deleted
	Puts         int64 `json:"puts"`
	BytesRead    int64 `json:"bytes_read"`    // payload bytes served from cache
	BytesWritten int64 `json:"bytes_written"` // payload bytes stored
}

// Sub returns the component-wise difference s - prev (for per-experiment
// deltas around a shared store).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		Corrupt:      s.Corrupt - prev.Corrupt,
		Puts:         s.Puts - prev.Puts,
		BytesRead:    s.BytesRead - prev.BytesRead,
		BytesWritten: s.BytesWritten - prev.BytesWritten,
	}
}

// String formats the one-line summary the commands print at exit.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d corrupt, %d puts, %d B read, %d B written",
		s.Hits, s.Misses, s.Corrupt, s.Puts, s.BytesRead, s.BytesWritten)
}

// Snapshot is a Stats copy tagged with the store directory, in the shape
// the obs run manifest embeds.
type Snapshot struct {
	Dir string `json:"dir"`
	Stats
	// Bypassed, when non-empty, explains why the attached store was not
	// consulted for the recorded runs (e.g. "obs active": observability
	// artifacts cannot come from a cache), so all-zero counters read as a
	// deliberate bypass rather than a broken cache.
	Bypassed string `json:"bypassed,omitempty"`
}

// Store is an on-disk content-addressed cache rooted at one directory.
// Entries live under <dir>/<key[:2]>/<key>, sharded on the first key byte
// so huge grids do not produce a single flat directory.
type Store struct {
	dir string

	hits, misses, corrupt, puts atomic.Int64
	bytesRead, bytesWritten     atomic.Int64
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// DefaultDir resolves the default cache directory: $EAC_CACHE_DIR if set,
// else <user cache dir>/eac/results, else .eac-cache in the working
// directory.
func DefaultDir() string {
	if d := os.Getenv("EAC_CACHE_DIR"); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "eac", "results")
	}
	return ".eac-cache"
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// path maps a key to its entry file. Keys are hex fingerprints; anything
// that is not a plain hex string is rejected by validKey.
func (st *Store) path(key string) string {
	return filepath.Join(st.dir, key[:2], key)
}

func validKey(key string) bool {
	if len(key) < 8 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the payload stored under key. ok is false on a miss; a
// corrupt entry (bad frame, short file, checksum mismatch) is deleted,
// counted in Stats.Corrupt, and reported as a miss.
func (st *Store) Get(key string) (data []byte, ok bool) {
	if st == nil || !validKey(key) {
		return nil, false
	}
	raw, err := os.ReadFile(st.path(key))
	if err != nil {
		st.misses.Add(1)
		return nil, false
	}
	payload, err := decode(raw)
	if err != nil {
		st.noteCorrupt(key)
		return nil, false
	}
	st.hits.Add(1)
	st.bytesRead.Add(int64(len(payload)))
	return payload, true
}

// Put stores payload under key, atomically (write to a temp file in the
// same directory, then rename). Concurrent Puts of the same key are safe:
// both write identical bytes and the last rename wins.
func (st *Store) Put(key string, payload []byte) error {
	if st == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("cache: invalid key %q", key)
	}
	path := st.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, werr := tmp.Write(encode(payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("cache: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	st.puts.Add(1)
	st.bytesWritten.Add(int64(len(payload)))
	return nil
}

// Discard deletes the entry stored under key and counts it as corrupt.
// Callers use it when a payload passes the store's checksum but fails
// their own decoding (a stale entry from an older value schema).
func (st *Store) Discard(key string) {
	if st == nil || !validKey(key) {
		return
	}
	st.noteCorrupt(key)
}

func (st *Store) noteCorrupt(key string) {
	os.Remove(st.path(key))
	st.corrupt.Add(1)
	st.misses.Add(1)
}

// Stats returns the traffic counters accumulated since Open.
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	return Stats{
		Hits:         st.hits.Load(),
		Misses:       st.misses.Load(),
		Corrupt:      st.corrupt.Load(),
		Puts:         st.puts.Load(),
		BytesRead:    st.bytesRead.Load(),
		BytesWritten: st.bytesWritten.Load(),
	}
}

// Len walks the store and returns the number of entries and their total
// on-disk size in bytes (frames included). Intended for the commands'
// cache summaries, not for hot paths.
func (st *Store) Len() (entries int, bytes int64) {
	if st == nil {
		return 0, 0
	}
	filepath.Walk(st.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.Contains(info.Name(), ".tmp") {
			return nil
		}
		entries++
		bytes += info.Size()
		return nil
	})
	return entries, bytes
}

// Clear removes every entry (the shard directories under the root). The
// root directory itself is kept, so the store remains usable.
func (st *Store) Clear() error {
	if st == nil {
		return nil
	}
	des, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	for _, de := range des {
		if err := os.RemoveAll(filepath.Join(st.dir, de.Name())); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
	}
	return nil
}

// encode frames a payload: magic, length, CRC-32C, payload.
func encode(payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[len(magic)+4:], crc32.Checksum(payload, crcTable))
	copy(out[headerLen:], payload)
	return out
}

// decode validates a frame and returns its payload.
func decode(raw []byte) ([]byte, error) {
	if len(raw) < headerLen || string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("cache: bad entry header")
	}
	n := binary.LittleEndian.Uint32(raw[len(magic):])
	sum := binary.LittleEndian.Uint32(raw[len(magic)+4:])
	payload := raw[headerLen:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("cache: truncated entry: have %d payload bytes, want %d", len(payload), n)
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("cache: checksum mismatch")
	}
	return payload, nil
}
