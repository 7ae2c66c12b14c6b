//go:build race

package bufpool

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool deliberately drops a random share of Puts, so a recycled
// buffer is not guaranteed to come back.
const raceEnabled = true
