package main

import "sort"

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs must not be empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (method "exclusive"), which is how
// the spread of a set of runs is judged. With fewer than two values both
// quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// sample is one timed invocation's figures.
type sample struct {
	wall, elapsed, cpu, rss float64
}

// samples groups a run's invocations by program seed.
type samples map[int64][]sample

// value is the mean over seeds of each seed's median, so every program
// seed weighs the same however many invocations it got.
func (ss samples) value(f func(sample) float64) float64 {
	sum := 0.0
	for _, xs := range ss {
		sum += median(figures(xs, f))
	}
	return sum / float64(len(ss))
}

// all returns one figure of every invocation.
func (ss samples) all(f func(sample) float64) []float64 {
	var out []float64
	for _, xs := range ss {
		out = append(out, figures(xs, f)...)
	}
	return out
}

func figures(xs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
