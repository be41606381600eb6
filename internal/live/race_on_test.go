//go:build race

package live

// raceEnabled reports whether the race detector instruments this
// build; allocation-budget tests skip under it because instrumentation
// adds allocations the budgets do not account for.
const raceEnabled = true
