//go:build race

package obs

// raceEnabled reports whether this binary was built with the race
// detector. The allocation guards in alloc_test.go skip under -race:
// the detector instruments allocations and inflates the counts the
// guards pin. check.sh runs those guards in a separate non-race
// invocation.
const raceEnabled = true
