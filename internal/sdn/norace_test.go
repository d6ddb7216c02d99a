//go:build !race

package sdn

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and voids allocation bounds.
const raceEnabled = false
