//go:build race

package setconsensus_test

// raceDetector reports whether the tests run under the race detector,
// which slows the exhaustive differentials enough that they sample.
const raceDetector = true
