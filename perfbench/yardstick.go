package main

import (
	"math"
	"sort"
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts by
// up to ±20% over minutes as neighbours come and go: the same simulation
// takes 20% longer for a while, and so does everything else. A yardstick, a
// fixed piece of the benchmark's own code that the program cannot change,
// is timed before every simulation; host times are reported in reference
// seconds, measured seconds scaled by yardstickRef over the run's median
// yardstick time. A program change moves the simulation time and not the
// yardstick, so it shows in full.

// yardstickRef is the yardstick's time on a 2.0 GHz Xeon host in a quiet
// moment; it only sets the scale of reference seconds.
const yardstickRef = 10 * time.Millisecond

var yardstickSink float64

// yardstick runs a fixed mix of the work the simulator does (small
// allocations, exp/log arithmetic, sorting short slices, map updates) and
// returns how long it took.
func yardstick() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	seen := make(map[uint64]float64, 4096)
	acc := 0.0
	for i := 0; i < 6000; i++ {
		probs := make([]float64, 32)
		sum := 0.0
		for j := range probs {
			probs[j] = math.Exp(float64(next()%1000) / 250)
			sum += probs[j]
		}
		sort.Float64s(probs)
		seen[next()%4096] += probs[len(probs)-1] / sum
		acc += math.Log(sum)
	}
	yardstickSink += acc + seen[7]
	return time.Since(start)
}
