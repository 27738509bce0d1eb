//go:build !race

package stencil

// raceEnabled reports a build with the race detector, whose runtime
// allocates on its own (see TestOneSidedSteadyStateAllocs).
const raceEnabled = false
