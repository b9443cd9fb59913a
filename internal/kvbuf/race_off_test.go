//go:build !race

package kvbuf

const raceEnabled = false
