//go:build !race

package walk

// raceEnabled is true under -race, whose instrumentation allocates on
// its own: the allocation guards skip themselves then.
const raceEnabled = false
