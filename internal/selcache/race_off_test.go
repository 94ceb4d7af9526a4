//go:build !race

package selcache

const raceEnabled = false
