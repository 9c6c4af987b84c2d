//go:build race

package sim_test

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random and allocation counts say nothing about the code.
const raceEnabled = true
