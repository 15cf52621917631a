package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail estimated from fewer samples is mostly noise.
const minTail = 10

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// tailPercentile returns the nearest-rank p-quantile of xs and whether
// it may be reported: at least minTail samples must lie strictly above
// it.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	v := s[idx]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond >= minTail
}

// tailTime is how long a batch ran with fewer than workers points in
// flight, from its start to its end: the straggler and hand-off time of
// a closed batch.
func tailTime(points []evaluated, wall float64, workers int) float64 {
	type edge struct {
		t float64
		d int
	}
	edges := make([]edge, 0, 2*len(points))
	for _, p := range points {
		edges = append(edges, edge{p.start.Seconds(), +1}, edge{p.end.Seconds(), -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d // an end before a start at the same instant
	})
	tail, active, last := 0.0, 0, 0.0
	for _, e := range edges {
		if active < workers {
			tail += e.t - last
		}
		active += e.d
		last = e.t
	}
	if active < workers && wall > last {
		tail += wall - last
	}
	return tail
}
