//go:build race

package experiments

// raceEnabled gates timing assertions the race detector's instrumentation
// flattens (it costs the same per memory access whichever parser runs).
const raceEnabled = true
