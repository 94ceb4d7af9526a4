//go:build !race

package sit

const raceEnabled = false
