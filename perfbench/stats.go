package main

import (
	"slices"
	"time"
)

// median of v (0 for an empty slice); v is left unchanged.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// wallNow reads the wall clock: the benchmark measures real elapsed time,
// while the worlds it drives keep their own virtual clocks.
func wallNow() time.Time {
	//tftlint:ignore simclock -- the benchmark measures wall-clock time by design
	return time.Now()
}

func wallSince(t time.Time) time.Duration { return wallNow().Sub(t) }
