//go:build race

package server

// allocSlack is what a race build adds to an allocation bound: the race
// detector's sync.Pool drops a random share of Puts, so pooled buffers
// and request records are sometimes allocated afresh.
const allocSlack = 4
