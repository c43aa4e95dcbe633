//go:build !race

package guardian

const raceEnabled = false
