package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program
// (or, for spans named replay.*, a figure taken from a replay of the same
// request; see README.md). Times are nanoseconds since the run started.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Req    int64  `json:"req"`    // request or iteration id; spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op and costs one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// at converts a wall-clock instant into span time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// add records a finished span and returns its id (-1 when untraced).
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: t.at(start), End: t.at(end)})
	t.mu.Unlock()
	return id
}

// addDur records a child span of the given duration anchored at start;
// used for layer times that the program reports (core.Stats) or that a
// replay measured, placed inside the live span they belong to.
func (t *tracer) addDur(name string, parent int32, req int64, start time.Time, d time.Duration) int32 {
	return t.add(name, parent, req, start, start.Add(d))
}

// selfTimes returns, for every request id whose root span is named root,
// the self time of each span name in that request: the span's duration
// minus the part of its interval that its children cover.
func selfTimes(spans []Span, root string) map[int64]map[string]time.Duration {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[int64]map[string]time.Duration)
	var walk func(id int32, acc map[string]time.Duration)
	walk = func(id int32, acc map[string]time.Duration) {
		s := spans[id]
		var ivs [][2]int64
		for _, c := range children[id] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
			walk(c, acc)
		}
		acc[s.Name] += time.Duration(s.End - s.Start - covered(ivs))
	}
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root {
			acc := make(map[string]time.Duration)
			walk(s.ID, acc)
			out[s.Req] = acc
		}
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// Attribution splits one end-to-end metric into layer self times plus
// the residual no layer accounts for, in the metric's own unit.
type Attribution struct {
	Metric   string             `json:"metric"`
	Unit     string             `json:"unit"`
	Value    float64            `json:"value"`
	Basis    string             `json:"basis"`
	Layers   map[string]float64 `json:"layers"`
	Residual float64            `json:"residual"`
}

// attribute averages the per-request self times over reqs, converts them
// with scale (seconds → metric unit) and leaves value − Σ as the
// residual. The root span's own self time is reported under its name.
func attribute(metric, unit, basis string, value float64, self map[int64]map[string]time.Duration, reqs []int64, scale float64) Attribution {
	a := Attribution{Metric: metric, Unit: unit, Value: value, Basis: basis, Layers: map[string]float64{}}
	n := 0
	for _, r := range reqs {
		acc, ok := self[r]
		if !ok {
			continue
		}
		n++
		for name, d := range acc {
			a.Layers[name] += d.Seconds() * scale
		}
	}
	sum := 0.0
	for name := range a.Layers {
		if n > 0 {
			a.Layers[name] /= float64(n)
		}
		sum += a.Layers[name]
	}
	a.Residual = value - sum
	return a
}
