//go:build !race

package diskbtree

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
