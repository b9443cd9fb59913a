//go:build race

package kvbuf

// raceEnabled reports a -race build, in which sync.Pool drops a random share
// of the buffers put back, so no pool round trip is deterministic.
const raceEnabled = true
