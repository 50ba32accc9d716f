package core

// RaceEnabled exposes raceEnabled to the package's external tests.
const RaceEnabled = raceEnabled

// VolumeFanout runs c's volume pass with its phases spread over fan.
func VolumeFanout(c *Convex, fan *Fanout) (float64, error) { return c.volume(fan) }

// FanoutEach exposes Fanout.each.
func FanoutEach(f *Fanout, n int, unit func(i int) error) (int, error) { return f.each(n, unit) }
