//go:build race

package server

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
