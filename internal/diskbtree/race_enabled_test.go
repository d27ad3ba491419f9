//go:build race

package diskbtree

// raceEnabled reports whether this test binary was built with -race.
// Allocation-count assertions are skipped under the race detector: its
// instrumentation allocates on its own schedule, so alloc counts are
// only meaningful in a plain build.
const raceEnabled = true
