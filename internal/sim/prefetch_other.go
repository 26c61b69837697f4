//go:build !amd64

package sim

import "unsafe"

// Prefetch is a no-op off amd64; see prefetch_amd64.go.
func Prefetch(unsafe.Pointer) {}
