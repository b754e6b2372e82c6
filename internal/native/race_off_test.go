//go:build !race

package native_test

const raceEnabled = false
