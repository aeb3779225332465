//go:build !race

package serve

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops some of what it is given.
const raceEnabled = false
