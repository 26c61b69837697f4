package trafgen

import (
	"eac/internal/sim"
)

// TokenBucket is a policing reshaper: packets conforming to an (r, b)
// token bucket pass through; nonconforming packets are dropped, exactly as
// the paper reshapes the Star Wars trace ("we reshape (by dropping) it to
// conform to a token bucket").
type TokenBucket struct {
	RateBps  float64 // token fill rate r, bits per second
	CapBytes float64 // bucket depth b, bytes

	tokens float64 // bytes
	last   sim.Time
}

// NewTokenBucket returns a full bucket with rate r (bits/s) and depth b
// (bytes).
func NewTokenBucket(rateBps float64, capBytes int) *TokenBucket {
	if rateBps <= 0 || capBytes <= 0 {
		panic("trafgen: NewTokenBucket requires positive rate and depth")
	}
	return &TokenBucket{RateBps: rateBps, CapBytes: float64(capBytes), tokens: float64(capBytes)}
}

// Conform refills the bucket to time now and reports whether a packet of
// size bytes conforms; conforming packets consume tokens.
func (tb *TokenBucket) Conform(now sim.Time, size int) bool {
	dt := now - tb.last
	tb.last = now
	if dt > 0 {
		tb.tokens += tb.RateBps / 8 * float64(dt) / float64(sim.Second)
		if tb.tokens > tb.CapBytes {
			tb.tokens = tb.CapBytes
		}
	}
	if tb.tokens >= float64(size) {
		tb.tokens -= float64(size)
		return true
	}
	return false
}

// Tokens returns the current token level in bytes (for tests).
func (tb *TokenBucket) Tokens() float64 { return tb.tokens }

// Shape wraps a FlowEmit so that only conforming packets pass.
func (tb *TokenBucket) Shape(emit FlowEmit) FlowEmit {
	return func(now sim.Time, id, size int) {
		if tb.Conform(now, size) {
			emit(now, id, size)
		}
	}
}
