//go:build race

package live

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool deliberately drops a random share of Puts, so allocation
// bounds that rely on the buffer pool do not hold.
const raceEnabled = true
