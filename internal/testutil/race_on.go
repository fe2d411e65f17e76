//go:build race

package testutil

// RaceEnabled reports whether the race detector is active. Its
// instrumentation changes allocation counts and makes sync.Pool drop what
// it is given, so alloc guards skip their strict ceilings under -race.
const RaceEnabled = true
