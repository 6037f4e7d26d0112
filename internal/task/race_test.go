//go:build race

package task

// raceEnabled reports a -race build, whose runtime adds a varying
// number of allocations per call that an allocation ceiling must not
// count.
const raceEnabled = true
