//go:build race

package serve_test

// raceEnabled reports a -race build, whose detector adds allocations that
// allocation tests must not charge to the code under test.
const raceEnabled = true
