//go:build race

package main

// raceEnabled reports a test binary built with -race.
const raceEnabled = true
