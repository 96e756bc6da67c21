//go:build race

package exec

// raceEnabled turns off allocation-count assertions: under the race
// detector sync.Pool drops items at random, so a pooled buffer may be
// allocated afresh on any call.
const raceEnabled = true
