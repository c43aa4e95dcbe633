//go:build !race

package durable_test

const raceEnabled = false
