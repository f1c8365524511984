//go:build !race

package sim

// raceEnabled reports a race-detector build.
const raceEnabled = false
