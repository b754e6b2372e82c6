//go:build !race

package gcao_test

const raceEnabled = false
