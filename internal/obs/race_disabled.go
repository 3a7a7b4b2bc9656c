//go:build !race

package obs

// raceEnabled is false in ordinary builds; see race_enabled.go.
const raceEnabled = false
