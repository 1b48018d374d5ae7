//go:build !race

package alignsvc

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
