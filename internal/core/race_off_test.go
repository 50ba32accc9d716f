//go:build !race

package core

// raceEnabled is true under -race, whose instrumentation allocates on
// its own: the allocation guards skip themselves then.
const raceEnabled = false
