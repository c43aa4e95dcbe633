//go:build !race

package bank_test

const raceEnabled = false
