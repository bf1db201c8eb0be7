//go:build race

package ops

// raceEnabled reports that the race detector is on: it instruments every
// function call, which turns a 2³²-iteration sweep from seconds into minutes.
const raceEnabled = true
