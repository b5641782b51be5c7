package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"wavelethist"
)

// buildMethods is the order of one build cycle.
var buildMethods = []wavelethist.Method{wavelethist.SendV, wavelethist.HWTopk, wavelethist.TwoLevelS}

// methodKey is a method's suffix in metric names.
func methodKey(m wavelethist.Method) string {
	switch m {
	case wavelethist.SendV:
		return "sendv"
	case wavelethist.HWTopk:
		return "hwtopk"
	default:
		return "twolevels"
	}
}

// minCycles is the fewest build cycles a phase runs however short its
// window; the exact counts and the SSE ratio come from the first ones.
const minCycles = 3

// sseBuilds is how many leading TwoLevel-S builds the SSE ratio is the
// median of.
const sseBuilds = 3

type buildRun struct {
	Method     wavelethist.Method
	Seed       uint64
	Cycle      int
	Start, End time.Time
	Res        *wavelethist.Result
	Err        error
}

func (b *buildRun) wall() time.Duration { return b.End.Sub(b.Start) }

// buildPhase is the outcome of one build phase.
type buildPhase struct {
	runs   []buildRun
	cycles int
	start  time.Time
	end    time.Time
}

// runBuilds runs cold build cycles (Send-V, H-WTopk, TwoLevel-S) on the
// worker fleet until window has passed and at least minCycles completed.
// A cycle, once started, always finishes.
func runBuilds(ctx context.Context, sys *system, seeds *buildSeeds, window time.Duration) buildPhase {
	p := buildPhase{start: time.Now()}
	for p.cycles < minCycles || time.Since(p.start) < window {
		if ctx.Err() != nil {
			break
		}
		for _, m := range buildMethods {
			b := buildRun{Method: m, Seed: seeds.next(), Cycle: p.cycles, Start: time.Now()}
			b.Res, b.Err = wavelethist.BuildDistributed(ctx, sys.ds, m, wavelethist.Options{K: buildK, Seed: b.Seed}, sys.coord)
			b.End = time.Now()
			if sys.rec.on.Load() && b.Res != nil {
				sys.rec.record(layerBuild, methodKey(m), b.Res.DistJobID, "coordinator", b.Start, b.End)
			}
			p.runs = append(p.runs, b)
		}
		p.cycles++
	}
	p.end = time.Now()
	return p
}

// buildRefs are the library references the timed builds are checked
// against.
type buildRefs struct {
	exact   map[int64]float64
	bestSSE float64
	ref     map[wavelethist.Method]*wavelethist.Result
}

func newBuildRefs(ds *wavelethist.Dataset) (*buildRefs, error) {
	r := &buildRefs{ref: map[wavelethist.Method]*wavelethist.Result{}, exact: ds.ExactFrequencies()}
	for _, m := range []wavelethist.Method{wavelethist.SendV, wavelethist.HWTopk} {
		res, err := wavelethist.Build(ds, m, wavelethist.Options{K: buildK, Seed: warmupSeed})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", m, err)
		}
		r.ref[m] = res
	}
	r.bestSSE = r.ref[wavelethist.SendV].Histogram.SSE(r.exact)
	return r, nil
}

// exactCounts are the deterministic quantities of a build phase. Two runs
// with the same seed must produce identical values.
type exactCounts struct {
	ModelCommBytes   map[string]int64 `json:"model_comm_bytes"`
	RecordsRead      map[string]int64 `json:"records_read"`
	CandidateSetSize int              `json:"candidate_set_size"`
	SSERatio         float64          `json:"sse_ratio_twolevels"`
	CycleWireBytes   int64            `json:"cycle_wire_bytes"`
}

// buildCheck is the verdict on a build phase.
type buildCheck struct {
	attempted, failed int
	invalid           []string // reasons the whole run is invalid
	counts            exactCounts
	sseRatios         []float64
	cycleWire         []float64
}

func sameHistogram(a, b *wavelethist.Histogram) bool {
	return a.Domain() == b.Domain() && slices.Equal(a.Coefficients(), b.Coefficients())
}

// check verifies every build of the phase: Send-V and H-WTopk must be
// bit-identical to the set-up references, with the same modeled
// communication, records read and candidate set; every TwoLevel-S build
// must equal the library build with its seed. A build served from a
// partial cache or retried invalidates the run.
func (p *buildPhase) check(ds *wavelethist.Dataset, refs *buildRefs) buildCheck {
	c := buildCheck{counts: exactCounts{
		ModelCommBytes: map[string]int64{}, RecordsRead: map[string]int64{},
	}}
	wire := map[int]int64{}
	for i := range p.runs {
		b := &p.runs[i]
		c.attempted++
		key := methodKey(b.Method)
		if b.Err != nil {
			c.failed++
			c.invalid = append(c.invalid, fmt.Sprintf("%s build failed: %v", b.Method, b.Err))
			continue
		}
		res := b.Res
		wire[b.Cycle] += res.WireBytes
		retries := 0
		for _, r := range res.PerRound {
			retries += r.Retries
		}
		if res.CachedSplits > 0 || retries > 0 {
			c.invalid = append(c.invalid, fmt.Sprintf("%s build %s: cached_splits=%d retries=%d, not a cold build",
				b.Method, res.DistJobID, res.CachedSplits, retries))
		}
		ref := refs.ref[b.Method]
		if ref == nil {
			var err error
			if ref, err = wavelethist.Build(ds, b.Method, wavelethist.Options{K: buildK, Seed: b.Seed}); err != nil {
				c.failed++
				c.invalid = append(c.invalid, fmt.Sprintf("reference %s seed %d: %v", b.Method, b.Seed, err))
				continue
			}
		}
		if !sameHistogram(res.Histogram, ref.Histogram) || res.ModelCommBytes != ref.ModelCommBytes ||
			res.RecordsRead != ref.RecordsRead || res.CandidateSetSize != ref.CandidateSetSize {
			c.failed++
			c.invalid = append(c.invalid, fmt.Sprintf("%s build %s (seed %d) differs from the library build", b.Method, res.DistJobID, b.Seed))
			continue
		}
		if _, ok := c.counts.ModelCommBytes[key]; !ok {
			c.counts.ModelCommBytes[key] = res.ModelCommBytes
			c.counts.RecordsRead[key] = res.RecordsRead
		}
		if b.Method == wavelethist.HWTopk {
			c.counts.CandidateSetSize = res.CandidateSetSize
		}
		if b.Method == wavelethist.TwoLevelS && len(c.sseRatios) < sseBuilds {
			c.sseRatios = append(c.sseRatios, res.Histogram.SSE(refs.exact)/refs.bestSSE)
		}
	}
	for cyc := 0; cyc < p.cycles; cyc++ {
		c.cycleWire = append(c.cycleWire, float64(wire[cyc]))
	}
	if len(c.cycleWire) > 0 {
		c.counts.CycleWireBytes = int64(c.cycleWire[0])
	}
	c.counts.SSERatio = median(c.sseRatios)
	return c
}

// buildTimes returns the wall seconds of a method's successful builds.
func (p *buildPhase) buildTimes(m wavelethist.Method) []float64 {
	var out []float64
	for i := range p.runs {
		if b := &p.runs[i]; b.Method == m && b.Err == nil {
			out = append(out, b.wall().Seconds())
		}
	}
	return out
}
