//go:build !race

package parallel

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
