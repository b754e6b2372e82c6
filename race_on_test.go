//go:build race

package gcao_test

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put into it, on purpose, so how often an engine is reused is not
// something a test can hold there.
const raceEnabled = true
