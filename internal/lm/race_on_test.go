//go:build race

package lm

// raceEnabled reports a -race build, whose detector adds allocations that
// allocation-count tests must not charge to the code under test.
const raceEnabled = true
