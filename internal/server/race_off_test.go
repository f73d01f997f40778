//go:build !race

package server

// allocSlack is what a race build adds to an allocation bound; without
// the race detector, bounds hold exactly.
const allocSlack = 0
