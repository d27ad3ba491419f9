//go:build !race

package journal

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
