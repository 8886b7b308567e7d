//go:build race

package fs

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation pins do not hold under it.
const raceEnabled = true
