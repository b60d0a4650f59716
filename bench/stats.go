package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of v (the mean of the two middle values
// for an even count); 0 for no samples.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile of v by linear interpolation
// between closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPerMille are the percentiles tail considers, in per mille, highest
// first.
var tailPerMille = []int{999, 990, 950, 900, 750}

// tail returns the highest percentile of v that has at least ten samples
// beyond it, labelled like "p90"; ok is false when v is too small for any.
func tail(v []float64) (label string, value float64, ok bool) {
	for _, pm := range tailPerMille {
		if len(v)*(1000-pm) >= 10*1000 {
			p := float64(pm) / 10
			return fmt.Sprintf("p%g", p), percentile(v, p), true
		}
	}
	return "", 0, false
}

// mean returns the arithmetic mean of v; 0 for no samples.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
