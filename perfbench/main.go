// Command perfbench is the repository's benchmark. It builds the whole
// system in one process through the repo's stable surfaces — a
// coordinator with nproc waveworkers behind loopback HTTP listeners, and
// a serving tier of two shards (primary plus replica each) behind an
// ha.Router — and runs three phases:
//
//	build        cold distributed builds: Send-V, H-WTopk, TwoLevel-S
//	serve-read   closed-loop routed reads: points, ranges, cross-shard batches
//	serve-write  open-loop update POSTs beside closed-loop reads, replicas following
//
// Every run executes all three phases, because every end-to-end metric is
// reported on every workload. The workload (serve-read or serve-write)
// names the phase that gets the longest window and, with --trace 1, a
// second untraced pass that prices the tracing. Every answer is checked
// against the library, and the last line of standard output is the JSON
// result.
//
// Run it from the repository root with perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"wavelethist"
)

// phases run in this order in every run; workloads name the phase a run
// favours.
var (
	phases    = []string{"build", "serve-read", "serve-write"}
	workloads = []string{"serve-read", "serve-write"}
)

const (
	// setupRepeats is how many times a run builds the system; setup_s
	// is the median.
	setupRepeats = 3
	// runDeadline bounds a whole run: a wedged run ends with an error
	// instead of hanging.
	runDeadline = 170 * time.Second
	// outDir holds the span traces and the exact-count ledger.
	outDir = ".bench_build/perfbench"
)

// phaseWindows splits the measured time: the workload's own phase gets
// 40%, the other two 30% each. Every end-to-end metric is reported on
// every workload, so no phase can be short enough to be noisy.
func phaseWindows(workload string, seconds int) map[string]time.Duration {
	total := time.Duration(seconds) * time.Second
	w := map[string]time.Duration{}
	for _, name := range phases {
		w[name] = total * 3 / 10
	}
	w[workload] = total * 4 / 10
	return w
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// info is the run's provenance and sample counts, printed on the line
// before the result.
type info struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       int                `json:"trace"`
	NProc       int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Commit      string             `json:"commit"`
	Source      string             `json:"source_digest"`
	UpdateRate  float64            `json:"update_posts_per_s"`
	ErrorFrac   float64            `json:"error_frac"`
	Samples     map[string]int     `json:"samples"`
	TailPct     map[string]float64 `json:"tail_pct"`
	TailWindows map[string]int     `json:"tail_windows"`
	TailWhole   map[string]float64 `json:"tail_whole_sample"`
	Exact       exactCounts        `json:"exact_counts"`
	Problems    []string           `json:"problems,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "one of "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 40, "measured seconds per run, split across the three phases")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, inf, err := bench(ctx, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b, _ := json.Marshal(map[string]any{"perfbench": inf})
	fmt.Println(string(b))
	printTable(res.Metrics)
	// error_frac is 0 on every correct run, so it is printed here and
	// carried by the result's attempted/failed counts rather than listed
	// as a benchmark metric, which must never be 0.
	fmt.Printf("%-36s %14.6g %s\n", "error_frac", inf.ErrorFrac, "frac")
	b, _ = json.Marshal(res)
	fmt.Println(string(b))
	return 0
}

// bench runs one workload and assembles its result.
func bench(ctx context.Context, workload string, seed uint64, seconds int, traced bool) (*result, *info, error) {
	inf := &info{
		Workload: workload, Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: envOr("PERFBENCH_COMMIT", "unknown"),
		Source:     os.Getenv("PERFBENCH_SOURCE"),
		UpdateRate: updateRate, Samples: map[string]int{}, TailPct: map[string]float64{},
		TailWindows: map[string]int{}, TailWhole: map[string]float64{},
	}
	if traced {
		inf.Trace = 1
	}
	rec := newRecorder()
	sys, setups, err := setupRepeated(ctx, seed, rec)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()

	// References: the library's own answers, computed outside set-up.
	var (
		refs    *buildRefs
		refsErr error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		refs, refsErr = newBuildRefs(sys.ds)
	}()
	base, initial, err := serveRefs(ctx, seed, sys)
	<-done
	if err = errors.Join(err, refsErr); err != nil {
		return nil, nil, err
	}

	logf("references ready")
	r := &runner{
		ctx: ctx, sys: sys, workload: workload, seed: seed,
		windows: phaseWindows(workload, seconds), seeds: newBuildSeeds(seed),
	}
	for _, name := range phases {
		if traced && name == workload {
			// An untraced pass first, to price the tracing itself.
			if err := r.phase(name, false); err != nil {
				return nil, nil, err
			}
			r.untraced = r.focusFigure()
		}
		if err := r.phase(name, traced); err != nil {
			return nil, nil, err
		}
	}
	spans := rec.take()
	logf("checking answers")

	res := &result{Metrics: metricSet{}}
	var problems []string
	m := res.Metrics

	// Builds are checked against the library while the serving answers
	// are, below.
	checks := make([]buildCheck, len(r.builds))
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for i, p := range r.builds {
			checks[i] = p.check(sys.ds, refs)
		}
	}()

	// Serving: replay the update stream in the library, then check every
	// answer against the library histogram of the version that gave it.
	hists, maintTimes, failed, why := replayUpdates(r.writes, base, initial)
	res.Failed += failed
	if why != "" {
		problems = append(problems, why)
	}
	for _, p := range append(append([]*servePhase{}, r.reads...), r.writes...) {
		failed, why := verifyReads(p, hists)
		res.Failed += failed
		res.Attempted += len(p.out)
		if why != "" {
			problems = append(problems, why)
		}
	}

	<-checked
	var bc buildCheck
	for i, c := range checks {
		res.Attempted += c.attempted
		res.Failed += c.failed
		problems = append(problems, c.invalid...)
		bc.cycleWire = append(bc.cycleWire, c.cycleWire...)
		if i == 0 {
			bc.counts = c.counts
		}
	}
	inf.Exact = bc.counts
	lastBuild := r.builds[len(r.builds)-1]
	m.set("setup_s", "s", median(setups))
	inf.Samples["setup_s"] = len(setups)
	for _, meth := range buildMethods {
		name := "build_" + methodKey(meth) + "_s"
		ts := lastBuild.buildTimes(meth)
		m.set(name, "s", median(ts))
		inf.Samples[name] = len(ts)
	}
	m.set("wire_bytes", "bytes", median(bc.cycleWire))
	inf.Samples["wire_bytes"] = len(bc.cycleWire)
	m.set("sse_ratio_twolevels", "ratio", bc.counts.SSERatio)
	inf.Samples["sse_ratio_twolevels"] = sseBuilds

	rp, wp := r.reads[len(r.reads)-1], r.writes[len(r.writes)-1]
	readSrc := rp
	if workload == "serve-write" {
		readSrc = wp
	}
	setDist(m, inf, "read", latencies(readSrc, opPoint, opRange))
	setDist(m, inf, "batch", latencies(rp, opBatch))
	setDist(m, inf, "update", latencies(wp, opUpdate))
	qps := perSecond(rp)
	m.set("read_qps", "1/s", median(qps))
	inf.Samples["read_qps"] = len(qps)

	diffs, err := checkLedger(filepath.Join(outDir, "exact-counts.json"), inf.Source, seed, bc.counts)
	if err != nil {
		inf.Notes = append(inf.Notes, "exact-count ledger unavailable: "+err.Error())
	}
	problems = append(problems, diffs...)

	if traced {
		lm := metricSet{}
		if err := r.perLayer(lm, spans, lastBuild, rp, wp, hists, maintTimes); err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			err = writeSpans(filepath.Join(outDir, "trace-"+workload+".jsonl"), spans)
		}
		if err != nil {
			inf.Notes = append(inf.Notes, "span dump failed: "+err.Error())
		}
		res.Metrics = lm
	}

	logf("done")
	inf.ErrorFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	inf.Problems = problems
	res.Correct = res.Failed == 0 && len(problems) == 0
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
		}
	}
	return res, inf, nil
}

// setupRepeated builds the system setupRepeats times, timing each, and
// keeps the last one.
func setupRepeated(ctx context.Context, seed uint64, rec *recorder) (*system, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := setup(ctx, seed, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			logf("set-up x%d: median %.2fs", setupRepeats, median(setups))
			return sys, setups, nil
		}
		sys.close()
	}
}

// serveRefs builds, in the library, the histogram each shard serves, and
// reads the registry version each primary published it at.
func serveRefs(ctx context.Context, seed uint64, sys *system) ([]*wavelethist.Histogram, []uint64, error) {
	base := make([]*wavelethist.Histogram, len(sys.shards))
	initial := make([]uint64, len(sys.shards))
	for i, sh := range sys.shards {
		rq := serveDataset(seed, i)
		ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{Records: rq.Records, Domain: rq.Domain, Alpha: rq.Alpha, Seed: rq.Seed})
		if err != nil {
			return nil, nil, err
		}
		res, err := wavelethist.Build(ds, wavelethist.SendV, wavelethist.Options{K: serveK})
		if err != nil {
			return nil, nil, err
		}
		base[i] = res.Histogram
		if initial[i], err = primaryVersion(ctx, sh); err != nil {
			return nil, nil, err
		}
	}
	return base, initial, nil
}

// runner runs a workload's phases and keeps what they measured.
type runner struct {
	ctx      context.Context
	sys      *system
	workload string
	seed     uint64
	windows  map[string]time.Duration
	seeds    *buildSeeds

	builds []*buildPhase
	reads  []*servePhase
	writes []*servePhase

	// Measured around the workload's own phase.
	untraced float64 // its headline figure on the untraced pass
	rt       [2]runtimeSample
	ops      int

	// Measured around the last serve-write phase.
	lag         []float64
	republished uint64
	pulls       int64
}

// phase runs one phase, traced or not.
func (r *runner) phase(name string, traced bool) error {
	r.sys.rec.on.Store(traced)
	defer r.sys.rec.on.Store(false)
	t0 := time.Now()
	defer func() { logf("phase %s (traced=%v): %.1fs", name, traced, time.Since(t0).Seconds()) }()
	nproc := runtime.NumCPU()
	if name == r.workload {
		r.rt[0] = readRuntime()
		defer func() { r.rt[1] = readRuntime() }()
	}
	var ops int
	switch name {
	case "build":
		p := runBuilds(r.ctx, r.sys, r.seeds, r.windows[name])
		r.builds = append(r.builds, &p)
		ops = len(p.runs)
	case "serve-read":
		p := runReadPhase(r.ctx, r.sys, r.seed, nproc, r.windows[name])
		r.reads = append(r.reads, &p)
		ops = len(p.out)
	case "serve-write":
		v0, pulls0, err := r.writeCounters()
		if err != nil {
			return err
		}
		var lag chan []float64
		stop := make(chan struct{})
		if traced {
			lag = make(chan []float64)
			go sampleLag(r.ctx, r.sys, stop, lag)
		}
		p, err := runWritePhase(r.ctx, r.sys, r.seed, nproc, r.windows[name])
		close(stop)
		if lag != nil {
			r.lag = <-lag
		}
		if err != nil {
			return fmt.Errorf("load generator: %w", err)
		}
		r.writes = append(r.writes, &p)
		ops = len(p.out)
		v1, pulls1, err := r.writeCounters()
		if err != nil {
			return err
		}
		r.republished, r.pulls = v1-v0, pulls1-pulls0
	}
	if name == r.workload {
		r.ops = ops
	}
	return nil
}

// writeCounters sums the primaries' registry versions, read from
// GET /v1/stats, and the replication pulls they served.
func (r *runner) writeCounters() (versions uint64, pulls int64, err error) {
	for _, sh := range r.sys.shards {
		v, err := primaryVersion(r.ctx, sh)
		if err != nil {
			return 0, 0, err
		}
		versions += v
		pulls += sh.ptrace.pulls.Load()
	}
	return versions, pulls, nil
}

// focusFigure is the headline figure of the workload's own phase, used
// to compare the traced pass with the untraced one.
func (r *runner) focusFigure() float64 {
	if r.workload == "serve-read" {
		return medianOf(latencies(r.reads[len(r.reads)-1], opPoint, opRange))
	}
	return medianOf(latencies(r.writes[len(r.writes)-1], opPoint, opRange))
}

// latencies returns the latency samples, in microseconds, of the given
// kinds, in the order the requests started.
func latencies(p *servePhase, kinds ...opKind) []timed {
	var out []timed
	for i := range p.out {
		s := &p.out[i]
		if slices.Contains(kinds, s.Req.Kind) && s.Err == nil {
			out = append(out, timed{s.Start, micros(s.Latency)})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].at.Before(out[b].at) })
	return out
}

func medianOf(xs []timed) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = x.v
	}
	return median(vals)
}

// setDist reports a latency distribution as <name>_p50_us, the median of
// every sample, and <name>_p99_us, the windowed tail. It records the
// sample count, the number of windows, the tail percentile used and,
// beside the windowed tail, the tail over every sample.
func setDist(m metricSet, inf *info, name string, xs []timed) {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = x.v
	}
	tail, pct, windows := windowedTail(xs, 99)
	d := summarize(vals, 99)
	m.set(name+"_p50_us", "us", d.P50)
	m.set(name+"_p99_us", "us", tail)
	inf.Samples[name+"_p50_us"] = d.N
	inf.Samples[name+"_p99_us"] = d.N
	inf.TailPct[name+"_p99_us"] = pct
	inf.TailWindows[name+"_p99_us"] = windows
	inf.TailWhole[name+"_p99_us"] = d.Tail
}

// perSecond counts a phase's completed requests in each whole second
// from its start.
func perSecond(p *servePhase) []float64 {
	if len(p.out) == 0 {
		return nil
	}
	start := p.out[0].Start
	for i := range p.out {
		if p.out[i].Start.Before(start) {
			start = p.out[i].Start
		}
	}
	counts := make([]float64, int(p.elapsed/time.Second))
	for i := range p.out {
		s := &p.out[i]
		if sec := int(s.Start.Add(s.Latency).Sub(start) / time.Second); sec < len(counts) {
			counts[sec]++
		}
	}
	return counts
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sampleLag samples each replica's lag behind its primary, in registry
// versions, every 100ms until stop closes.
func sampleLag(ctx context.Context, sys *system, stop <-chan struct{}, out chan<- []float64) {
	var samples []float64
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			out <- samples
			return
		case <-t.C:
			for _, sh := range sys.shards {
				pv, err := primaryVersion(ctx, sh)
				if err == nil {
					samples = append(samples, float64(pv)-float64(sh.follower.Version()))
				}
			}
		}
	}
}

// perLayer assembles the traced run's per-layer metrics.
func (r *runner) perLayer(m metricSet, spans []span, bp *buildPhase, rp, wp *servePhase, hists *versioned, maintTimes map[string]time.Duration) error {
	sys := r.sys
	idx := indexSpans(spans)
	buildLayers(m, bp, idx, len(sys.workers))
	resultCounts(m, bp)
	serveLayers(m, []*servePhase{rp, wp}, idx, hists, maintTimes)

	var mt []float64
	for _, d := range maintTimes {
		mt = append(mt, micros(d))
	}
	m.set("wavelet.maintainer_update_us", "us", median(mt))

	var conns int64
	for _, sh := range sys.shards {
		conns += sh.pnode.newConns.Load() + sh.rnode.newConns.Load()
	}
	routed := len(rp.out) + len(wp.out)
	m.set("ha.upstream_new_conns", "count", float64(conns)*1000/float64(max(routed, 1)))
	m.set("client.new_conns", "count", float64(rp.dials+wp.dials))

	var late, pulls []float64
	for i := range wp.out {
		if wp.out[i].Req.Kind == opUpdate {
			late = append(late, micros(wp.out[i].Late))
		}
	}
	m.set("loadgen.late_p99_us", "us", summarize(late, 99).Tail)
	for i := range spans {
		if spans[i].Layer == layerShard && spans[i].Op == "repl_pull" {
			pulls = append(pulls, micros(spans[i].dur()))
		}
	}
	m.set("ha.repl_pull_us", "us", median(pulls))
	m.set("ha.repl_pulls", "count", float64(r.pulls))
	m.set("ha.replica_lag_versions", "count", mean(r.lag))
	m.set("serve.republishes", "count", float64(r.republished))

	d0, d1 := r.rt[0], r.rt[1]
	m.set("runtime.alloc_bytes_per_op", "bytes", (d1.allocBytes-d0.allocBytes)/float64(max(r.ops, 1)))
	m.set("runtime.gc_cpu_frac", "frac", (d1.gcCPU-d0.gcCPU)/math.Max(d1.totalCPU-d0.totalCPU, 1e-9))
	m.set("trace.overhead_frac", "frac", r.focusFigure()/r.untraced-1)

	t0 := time.Now()
	file, _, err := sys.ds.Spec().Materialize()
	if err != nil {
		return err
	}
	m.set("datagen.materialize_s", "s", time.Since(t0).Seconds())
	return coreLayers(r.ctx, m, file, bp)
}

// wireSlack is how far a cycle's wire bytes may drift between runs: job
// IDs and deflate output vary by a few bytes per RPC.
const wireSlack = 1024

// checkLedger compares this run's exact counts with those an earlier run
// of the same code and seed recorded in the ledger at path, and records them if
// new. The key holds the digest of the sources under test, so a change
// that moves a count legitimately starts a fresh entry instead of failing
// against the counts of the code before it.
func checkLedger(path, source string, seed uint64, c exactCounts) ([]string, error) {
	if source == "" {
		return nil, errors.New("PERFBENCH_SOURCE is not set; run the benchmark through run.sh")
	}
	ledger := map[string]exactCounts{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &ledger); err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	key := source + "/" + strconv.FormatUint(seed, 10)
	prev, ok := ledger[key]
	if !ok {
		ledger[key] = c
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		b, _ := json.MarshalIndent(ledger, "", "  ")
		return nil, os.WriteFile(path, b, 0o644)
	}
	var diffs []string
	for _, k := range sortedKeys(c.ModelCommBytes) {
		if prev.ModelCommBytes[k] != c.ModelCommBytes[k] {
			diffs = append(diffs, fmt.Sprintf("core.model_comm_bytes.%s: %d, earlier run %d", k, c.ModelCommBytes[k], prev.ModelCommBytes[k]))
		}
		if prev.RecordsRead[k] != c.RecordsRead[k] {
			diffs = append(diffs, fmt.Sprintf("core.records_read.%s: %d, earlier run %d", k, c.RecordsRead[k], prev.RecordsRead[k]))
		}
	}
	if prev.CandidateSetSize != c.CandidateSetSize {
		diffs = append(diffs, fmt.Sprintf("core.candidate_set_size: %d, earlier run %d", c.CandidateSetSize, prev.CandidateSetSize))
	}
	if prev.SSERatio != c.SSERatio {
		diffs = append(diffs, fmt.Sprintf("sse_ratio_twolevels: %v, earlier run %v", c.SSERatio, prev.SSERatio))
	}
	if d := c.CycleWireBytes - prev.CycleWireBytes; d > wireSlack || d < -wireSlack {
		diffs = append(diffs, fmt.Sprintf("wire_bytes of the first cycle: %d, earlier run %d", c.CycleWireBytes, prev.CycleWireBytes))
	}
	return diffs, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// envOr returns the environment variable key, or def when it is unset.
func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

var started = time.Now()

// logf reports progress on standard error, stamped with the seconds since
// the process started.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.1fs: "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

// printTable prints every metric with its unit, one per line.
func printTable(m metricSet) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
