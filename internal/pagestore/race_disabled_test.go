//go:build !race

package pagestore

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
