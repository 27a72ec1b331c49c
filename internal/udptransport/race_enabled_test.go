//go:build race

package udptransport

// raceEnabled reports whether this test binary runs under the race
// detector, which deliberately randomizes sync.Pool reuse and so makes
// testing.AllocsPerRun gates jitter by a few allocations.
const raceEnabled = true
