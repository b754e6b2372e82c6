//go:build race

package native_test

// raceEnabled: the race detector multiplies a run's memory and time, which
// a paper-size run cannot afford.
const raceEnabled = true
