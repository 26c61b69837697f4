//go:build race

package obs

// raceEnabled: the race detector changes allocation counts (sync.Pool
// drops items at random under it), so alloc-bound tests skip.
const raceEnabled = true
