package main

import (
	"context"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"time"
)

// Inputs. Every generated input derives from the workload seed.
const (
	buildRecords = 1 << 21 // ≈2^21-record Zipf dataset the builds scan
	buildDomain  = 1 << 20
	buildAlpha   = 1.1
	buildK       = 30

	serveRecords = 1 << 20 // each served histogram's source dataset
	serveDomain  = 1 << 20
	serveK       = 2048
	numShards    = 2

	batchSize  = 256 // sub-queries per cross-shard batch
	rangeWidth = serveDomain / 8
	updateSize = 16    // key deltas per update POST
	updateRate = 400.0 // serve-write open-loop update POSTs per second
)

// derive returns an independent 64-bit seed for a named input stream.
func derive(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := seed ^ h.Sum64()
	// splitmix64 finaliser
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRand(seed uint64, label string) *rand.Rand {
	return rand.New(rand.NewPCG(derive(seed, label), derive(seed, label+"#2")))
}

// buildSeeds yields the per-build seeds of the build phase. Every timed
// build gets a fresh seed, so no worker's partial cache (keyed by params,
// seed included) can serve it.
type buildSeeds struct{ r *rand.Rand }

func newBuildSeeds(seed uint64) *buildSeeds { return &buildSeeds{newRand(seed, "build-seeds")} }

func (b *buildSeeds) next() uint64 {
	for {
		if s := b.r.Uint64(); s > warmupSeed {
			return s
		}
	}
}

// warmupSeed is the build seed of the set-up RPC that makes each worker
// materialize the dataset. No timed build uses it.
const warmupSeed = 1

type opKind uint8

const (
	opPoint opKind = iota
	opRange
	opBatch
	opUpdate
	numOps
)

func (o opKind) String() string {
	return [...]string{"point", "range", "batch", "update"}[o]
}

// query is one point or range query on histogram Name (an index into the
// served names).
type query struct {
	Op     opKind // opPoint or opRange
	Name   int
	Key    int64
	Lo, Hi int64
}

type update struct {
	Key   int64
	Delta float64
}

// request is one HTTP request of a serving workload.
type request struct {
	Kind    opKind
	Q       query   // point, range; Q.Name for updates
	Batch   []query // batch
	Updates []update
}

func randPoint(r *rand.Rand, name int) query {
	return query{Op: opPoint, Name: name, Key: r.Int64N(serveDomain)}
}

func randRange(r *rand.Rand, name int) query {
	lo := r.Int64N(serveDomain - rangeWidth + 1)
	return query{Op: opRange, Name: name, Lo: lo, Hi: lo + rangeWidth - 1}
}

// readStream is one closed-loop reader's request sequence. A serve-read
// client sends 80% point GETs, 10% range GETs of width u/8 and 10%
// cross-shard batches of batchSize mixed sub-queries over every served
// histogram; a reader under writes sends the same points and ranges,
// without batches.
type readStream struct {
	r       *rand.Rand
	batches bool
}

func newReadStream(seed uint64, label string, client int, batches bool) *readStream {
	return &readStream{newRand(seed, label+"-"+strconv.Itoa(client)), batches}
}

func (s *readStream) next() request {
	r := s.r
	name := r.IntN(numShards)
	n := 9
	if s.batches {
		n = 10
	}
	switch x := r.IntN(n); {
	case x < 8:
		return request{Kind: opPoint, Q: randPoint(r, name)}
	case x < 9:
		return request{Kind: opRange, Q: randRange(r, name)}
	default:
		b := make([]query, batchSize)
		for i := range b {
			n := r.IntN(numShards)
			if r.IntN(2) == 0 {
				b[i] = randPoint(r, n)
			} else {
				b[i] = randRange(r, n)
			}
		}
		return request{Kind: opBatch, Batch: b}
	}
}

// scheduled is one open-loop request and when it is due, as an offset
// from the phase start.
type scheduled struct {
	Seq int
	Due time.Duration
	Req request
}

// updateSchedule lays out serve-write's open-loop update stream: a POST
// of updateSize key deltas to a random served histogram, due every
// 1/rate seconds for dur. One connection sends them all in order, so the
// primaries apply them in a known order and the library can replay them
// exactly.
func updateSchedule(seed uint64, rate float64, dur time.Duration) []scheduled {
	r := newRand(seed, "update-schedule")
	n := int(rate * dur.Seconds())
	out := make([]scheduled, n)
	for i := range out {
		ups := make([]update, updateSize)
		name := r.IntN(numShards)
		for j := range ups {
			ups[j] = update{Key: r.Int64N(serveDomain), Delta: float64(1 + r.IntN(4))}
		}
		out[i] = scheduled{
			Seq: i,
			Due: time.Duration(float64(i) / rate * float64(time.Second)),
			Req: request{Kind: opUpdate, Q: query{Name: name}, Updates: ups},
		}
	}
	return out
}

// sample is one request's timing. Latency counts from Due, so a stall
// also charges the wait it imposes on every request queued behind it.
type sample struct {
	Seq             int
	Due, Sent, Done time.Time
	Status          int
	Body            []byte
	Err             error
}

func (s *sample) latency() time.Duration { return s.Done.Sub(s.Due) }
func (s *sample) late() time.Duration    { return s.Sent.Sub(s.Due) }

// runOpenLoop sends one connection's queue on schedule: each request
// waits until it is due, or goes at once when the connection is behind.
func runOpenLoop(ctx context.Context, start time.Time, queue []scheduled, do func(request, int) (int, []byte, error)) ([]sample, error) {
	out := make([]sample, 0, len(queue))
	for _, it := range queue {
		due := start.Add(it.Due)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			time.Sleep(min(d, 10*time.Millisecond))
		}
		s := sample{Seq: it.Seq, Due: due, Sent: time.Now()}
		s.Status, s.Body, s.Err = do(it.Req, it.Seq)
		s.Done = time.Now()
		out = append(out, s)
	}
	return out, nil
}
