package sim

import "unsafe"

// Prefetch hints that the cache line at p will be read soon (PREFETCHT0).
// It never faults, nil included, and has no effect a program can observe
// but time.
//
//go:noescape
func Prefetch(p unsafe.Pointer)
