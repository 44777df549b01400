//go:build !race

package graphio

// raceEnabled reports whether the race detector is active — same split
// as the root package's race_off_test.go/race_on_test.go pair: the
// plain run executes the load-path timing gate, the -race run skips it
// (instrumented parses stretch the gate from 2 s to about 18 s on a 2-CPU
// host) and covers everything else with the detector.
const raceEnabled = false
