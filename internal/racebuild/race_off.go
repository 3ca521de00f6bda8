//go:build !race

// Package racebuild reports, as one compile-time constant, whether the
// binary was built with the race detector (go build -race).
//
// Two things read it. The tuple pool compiles its per-P cache out under
// -race: the detector sees no happens-before edge through runtime.procPin,
// so two goroutines taking turns on one P's free list look like a data
// race, while sync.Pool carries the race annotations the detector needs.
// And tests skip their steady-state allocation guards, because sync.Pool
// deliberately drops about a quarter of its Puts under -race, so a pooled
// steady state cannot be allocation-free there.
package racebuild

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
