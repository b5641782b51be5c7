package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the tail percentiles the benchmark may report, highest
// first. A tail is only meaningful with at least minBeyond samples above
// it, so with fewer samples the next lower rung is reported instead.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// distribution summarises one latency (or duration) sample set: the median, the
// highest tail percentile with at least minBeyond samples beyond it, and
// the sample count.
type distribution struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

// summarize sorts xs in place and returns its distribution. maxPct limits
// the tail rung: a metric named p99 never reports p99.9.
func summarize(xs []float64, maxPct float64) distribution {
	d := distribution{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.P50 = quantile(xs, 0.5)
	d.TailPct = tailPct(len(xs), maxPct)
	d.Tail = quantile(xs, d.TailPct/100)
	return d
}

// tailPct returns the highest percentile on tailLadder, at most maxPct,
// that leaves at least minBeyond of n samples beyond it. It returns 0
// when even the median lacks that many.
func tailPct(n int, maxPct float64) float64 {
	for _, p := range tailLadder {
		if p > maxPct {
			continue
		}
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// interval is a half-open time interval [Start, End).
type interval struct {
	Start, End time.Time
}

// selfTime is a span's duration minus the part of it covered by its
// children. Children that overlap each other (scatter-gather fan-out)
// are counted once: the union of their intervals, clipped to the
// parent, is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.End.Sub(parent.Start)
	if total <= 0 {
		return 0
	}
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].Start.Before(clipped[b].Start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			covered += cur.End.Sub(cur.Start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End.Sub(cur.Start)
	}
	return total - covered
}

// timed is one sample and when it was taken.
type timed struct {
	at time.Time
	v  float64
}

// windowSamples is the fewest samples a tail window holds: enough for
// minBeyond samples beyond a p99.
const windowSamples = 1000

// windowedTail splits time-ordered samples into as many consecutive
// windows of at least windowSamples as they fill, takes each window's
// tail (the highest percentile up to maxPct with minBeyond samples beyond
// it) and returns the upper quartile across windows, with the percentile
// and the window count. A burst of host CPU stalls that spoils a quarter
// of the windows or fewer does not move the result, while a stall the
// program causes in more than a quarter of them does. With fewer than
// windowSamples samples there is one window.
func windowedTail(xs []timed, maxPct float64) (tail, pct float64, windows int) {
	if len(xs) == 0 {
		return math.NaN(), 0, 0
	}
	windows = max(len(xs)/windowSamples, 1)
	tails := make([]float64, windows)
	for w := range tails {
		chunk := make([]float64, 0, len(xs)/windows+1)
		for _, x := range xs[w*len(xs)/windows : (w+1)*len(xs)/windows] {
			chunk = append(chunk, x.v)
		}
		d := summarize(chunk, maxPct)
		tails[w], pct = d.Tail, d.TailPct
	}
	sort.Float64s(tails)
	return quantile(tails, 0.75), pct, windows
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
