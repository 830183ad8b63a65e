package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// band returns the indexes of the latencies whose rank lies within
// ±width of quantile q: the requests that set that percentile.
func band(lat []float64, q, width float64) []int {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case lat[a] < lat[b]:
			return -1
		case lat[a] > lat[b]:
			return 1
		}
		return 0
	})
	lo := int(math.Floor((q - width) * float64(len(idx))))
	hi := int(math.Ceil((q + width) * float64(len(idx))))
	lo = max(lo, 0)
	hi = min(hi, len(idx))
	return idx[lo:hi]
}

// medianWindow returns the indexes of the window whose q-quantile is the
// windowed figure (the lower middle one when n is even) and that
// quantile: the requests that set a windowed percentile.
func medianWindow(xs []float64, n int, q float64) (lo, hi int) {
	n = max(1, min(n, len(xs)))
	type win struct {
		lo, hi int
		v      float64
	}
	ws := make([]win, n)
	for w := range ws {
		lo, hi := w*len(xs)/n, (w+1)*len(xs)/n
		ws[w] = win{lo, hi, quantile(xs[lo:hi], q)}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].v < ws[j].v })
	m := ws[(n-1)/2]
	return m.lo, m.hi
}

// windowed splits xs (in arrival order) into n consecutive windows and
// returns the median across windows of each window's q-quantile: a
// window disturbed by something outside the program (another tenant, a
// burst of host load) moves the figure little.
func windowed(xs []float64, n int, q float64) float64 {
	n = max(1, min(n, len(xs)))
	per := make([]float64, n)
	for w := range per {
		per[w] = quantile(xs[w*len(xs)/n:(w+1)*len(xs)/n], q)
	}
	return median(per)
}

// Windows per phase: latencies and rates are medians over this many
// consecutive windows. Upserts are fewer, so they get fewer windows.
const (
	latencyWindows = 5
	upsertWindows  = 4
)
