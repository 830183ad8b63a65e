//go:build race

package server

// RaceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates on paths that are allocation-free in
// normal builds, so zero-alloc assertions consult this and skip
// themselves under -race (the property is still enforced by the
// non-race test run).
const RaceEnabled = true
