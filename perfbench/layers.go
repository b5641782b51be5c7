package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/internal/core"
	"wavelethist/internal/hdfs"
)

// metricSet collects one run's metrics by name.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name, unit string, v float64) { m[name] = metricValue{Value: v, Unit: unit} }

// engineReps is how many times a replayed query runs per timing; one
// point query takes well under a microsecond.
const engineReps = 8

var engineSink float64

// engineTime prices queries on the library histogram the shard serves,
// the way serve's batch path runs them: a single query through
// PointEstimate/RangeCount, a group through BatchPoints and BatchRanges.
func engineTime(h *wavelethist.Histogram, qs []query) time.Duration {
	if len(qs) == 1 {
		start := time.Now()
		for i := 0; i < engineReps; i++ {
			engineSink += answer(h, qs[0])
		}
		return time.Since(start) / engineReps
	}
	var xs, los, his []int64
	for _, q := range qs {
		if q.Op == opPoint {
			xs = append(xs, q.Key)
		} else {
			los = append(los, q.Lo)
			his = append(his, q.Hi)
		}
	}
	pout := make([]float64, len(xs))
	rout := make([]float64, len(los))
	start := time.Now()
	for i := 0; i < engineReps; i++ {
		h.BatchPoints(xs, pout)
		h.BatchRanges(los, his, rout)
	}
	return time.Since(start) / engineReps
}

// spanIndex groups spans by request ID.
type spanIndex map[string]*ridSpans

type ridSpans struct {
	client, router *span
	shards         []*span
	rpcs, workers  []*span
}

func indexSpans(spans []span) spanIndex {
	idx := spanIndex{}
	get := func(id string) *ridSpans {
		r := idx[id]
		if r == nil {
			r = &ridSpans{}
			idx[id] = r
		}
		return r
	}
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case layerClient:
			get(s.RID).client = s
		case layerRouter:
			get(s.RID).router = s
		case layerShard:
			if s.RID != "" {
				get(s.RID).shards = append(get(s.RID).shards, s)
			}
		case layerRPC:
			get(s.RID).rpcs = append(get(s.RID).rpcs, s)
		case layerWorker:
			get(s.RID).workers = append(get(s.RID).workers, s)
		}
	}
	return idx
}

// shardIndex maps a shard span's node ("s1/primary") to its shard index.
func shardIndex(node string) int {
	var i int
	fmt.Sscanf(strings.TrimPrefix(node, "s"), "%d", &i)
	return i
}

// serveLayers prices each layer of routed requests from their spans:
// client self time (client span minus router span), router self time
// (router span minus the union of its shard spans), shard handler and
// self time (handler minus the engine's replayed time), and the engine.
func serveLayers(m metricSet, phases []*servePhase, idx spanIndex, hists *versioned, maintTimes map[string]time.Duration) {
	type perOp struct{ clientSelf, routerSelf, handler, self, engine []float64 }
	ops := make([]perOp, numOps)
	routed, upstream := 0, 0
	for _, p := range phases {
		for i := range p.out {
			s := &p.out[i]
			rs := idx[s.RID]
			if rs == nil || rs.client == nil || rs.router == nil || s.Err != nil {
				continue
			}
			o := &ops[s.Req.Kind]
			o.clientSelf = append(o.clientSelf, micros(rs.client.dur()-rs.router.dur()))
			children := make([]interval, len(rs.shards))
			for j, sh := range rs.shards {
				children[j] = sh.interval()
			}
			o.routerSelf = append(o.routerSelf, micros(selfTime(rs.router.interval(), children)))
			routed++
			upstream += len(rs.shards)
			version := estimateVersion(s)
			var total time.Duration
			for _, sh := range rs.shards {
				var eng time.Duration
				switch s.Req.Kind {
				case opUpdate:
					eng = maintTimes[s.RID]
				case opBatch:
					n := shardIndex(sh.Node)
					var group []query
					for _, q := range s.Req.Batch {
						if q.Name == n {
							group = append(group, q)
						}
					}
					eng = engineTime(hists.base[n], group)
				default:
					if h := hists.get(s.Req.Q.Name, version); h != nil {
						eng = engineTime(h, []query{s.Req.Q})
					}
				}
				total += eng
				o.handler = append(o.handler, micros(sh.dur()))
				o.self = append(o.self, micros(sh.dur()-eng))
			}
			o.engine = append(o.engine, micros(total))
		}
	}
	for k := opKind(0); k < numOps; k++ {
		o := ops[k]
		op := k.String()
		m.set("client.self_us."+op, "us", median(o.clientSelf))
		m.set("ha.router_self_us."+op, "us", median(o.routerSelf))
		m.set("serve.handler_us."+op, "us", median(o.handler))
		m.set("serve.self_us."+op, "us", median(o.self))
		if k != opUpdate {
			m.set("wavelet.engine_us."+op, "us", median(o.engine))
		}
	}
	m.set("ha.upstream_calls_per_req", "count", float64(upstream)/float64(max(routed, 1)))
}

func estimateVersion(s *served) uint64 {
	var est estimateBody
	if s.Req.Kind == opPoint || s.Req.Kind == opRange {
		json.Unmarshal(s.Body, &est)
	}
	return est.Version
}

// buildLayers prices the dist layers of traced builds: the coordinator's
// map RPC spans (summed over a build's concurrent RPCs), their self time
// (RPC span minus the worker span serving it), worker busy time (the
// union of each worker's handler spans), and H-WTopk's per-round spans
// (first RPC start to last RPC end of the round).
func buildLayers(m metricSet, p *buildPhase, idx spanIndex, workers int) {
	byJob := map[string][]*ridSpans{}
	rounds := map[*ridSpans]int{}
	for id, rs := range idx {
		if i := strings.Index(id, "/r"); i > 0 && len(rs.rpcs) > 0 {
			byJob[id[:i]] = append(byJob[id[:i]], rs)
			rounds[rs] = roundOf(id)
		}
	}
	type perMethod struct{ rpc, rpcSelf, busy, util []float64 }
	per := map[wavelethist.Method]*perMethod{}
	roundTimes := make([][]float64, 3)
	for i := range p.runs {
		b := &p.runs[i]
		if b.Err != nil || len(byJob[b.Res.DistJobID]) == 0 {
			continue
		}
		pm := per[b.Method]
		if pm == nil {
			pm = &perMethod{}
			per[b.Method] = pm
		}
		var rpc, self, busy time.Duration
		var rstart, rend [3]time.Time
		perWorker := map[string][]interval{}
		for _, rs := range byJob[b.Res.DistJobID] {
			var w time.Duration
			for _, ws := range rs.workers {
				w += ws.dur()
				perWorker[ws.Node] = append(perWorker[ws.Node], ws.interval())
			}
			for _, r := range rs.rpcs {
				rpc += r.dur()
				self += r.dur() - w
				if rd := rounds[rs]; rd >= 1 && rd <= 3 {
					if rstart[rd-1].IsZero() || r.Start.Before(rstart[rd-1]) {
						rstart[rd-1] = r.Start
					}
					if r.End.After(rend[rd-1]) {
						rend[rd-1] = r.End
					}
				}
			}
		}
		whole := interval{b.Start, b.End}
		for _, ivs := range perWorker {
			busy += whole.End.Sub(whole.Start) - selfTime(whole, ivs)
		}
		pm.rpc = append(pm.rpc, rpc.Seconds())
		pm.rpcSelf = append(pm.rpcSelf, self.Seconds())
		pm.busy = append(pm.busy, busy.Seconds())
		pm.util = append(pm.util, busy.Seconds()/(float64(workers)*b.wall().Seconds()))
		if b.Method == wavelethist.HWTopk {
			for r := 0; r < 3; r++ {
				if !rstart[r].IsZero() {
					roundTimes[r] = append(roundTimes[r], rend[r].Sub(rstart[r]).Seconds())
				}
			}
		}
	}
	for _, meth := range buildMethods {
		k := methodKey(meth)
		pm := per[meth]
		if pm == nil {
			pm = &perMethod{}
		}
		m.set("dist.rpc_s."+k, "s", median(pm.rpc))
		m.set("dist.rpc_self_s."+k, "s", median(pm.rpcSelf))
		m.set("dist.worker_busy_s."+k, "s", median(pm.busy))
		m.set("dist.worker_util."+k, "frac", median(pm.util))
	}
	for r := 0; r < 3; r++ {
		m.set(fmt.Sprintf("dist.round_s.hwtopk.r%d", r+1), "s", median(roundTimes[r]))
	}
}

// roundOf parses the round out of an RPC request ID ("job/r2/[...]").
func roundOf(id string) int {
	i := strings.Index(id, "/r")
	if i < 0 {
		return 0
	}
	var r int
	fmt.Sscanf(id[i+2:], "%d", &r)
	return r
}

// resultCounts reports the per-build counters a distributed Result
// carries, from the first build of each method.
func resultCounts(m metricSet, p *buildPhase) {
	done := map[wavelethist.Method]bool{}
	for i := range p.runs {
		b := &p.runs[i]
		if b.Err != nil || done[b.Method] {
			continue
		}
		done[b.Method] = true
		k := methodKey(b.Method)
		rpcs, retries := 0, 0
		for _, r := range b.Res.PerRound {
			rpcs += r.RPCs
			retries += r.Retries
		}
		m.set("dist.wire_bytes."+k, "bytes", float64(b.Res.WireBytes))
		m.set("core.model_comm_bytes."+k, "bytes", float64(b.Res.ModelCommBytes))
		m.set("core.records_read."+k, "count", float64(b.Res.RecordsRead))
		m.set("dist.rpcs."+k, "count", float64(rpcs))
		m.set("dist.retries."+k, "count", float64(retries))
		m.set("dist.cached_splits."+k, "count", float64(b.Res.CachedSplits))
		if b.Method == wavelethist.HWTopk {
			m.set("core.candidate_set_size", "count", float64(b.Res.CandidateSetSize))
		}
	}
}

// coreLayers replays each method's map, merge and codec work by calling
// internal/core and the dist codec directly on the benchmark's own copy
// of the dataset, with the params of the phase's first build.
func coreLayers(ctx context.Context, m metricSet, file *hdfs.File, p *buildPhase) error {
	seedOf := map[wavelethist.Method]uint64{}
	for i := range p.runs {
		if _, ok := seedOf[p.runs[i].Method]; !ok {
			seedOf[p.runs[i].Method] = p.runs[i].Seed
		}
	}
	for _, meth := range buildMethods {
		method, prm := string(meth), coreParams(seedOf[meth])
		splits := make([]int, core.NumSplits(file, prm))
		for i := range splits {
			splits[i] = i
		}
		var mapT, mergeT, codecT time.Duration
		if core.Rounds(method) == 1 {
			t0 := time.Now()
			parts, err := core.MapSplits(ctx, file, method, prm, splits)
			if err != nil {
				return err
			}
			mapT = time.Since(t0)
			c, err := codecTime(parts)
			if err != nil {
				return err
			}
			codecT = c
			t0 = time.Now()
			if _, err := core.MergePartials(ctx, file, method, prm, parts); err != nil {
				return err
			}
			mergeT = time.Since(t0)
		} else {
			rp, err := core.NewRoundPlan(file, method, prm)
			if err != nil {
				return err
			}
			ws := core.NewWorkerState()
			for r := 1; r <= rp.NumRounds(); r++ {
				bcast := rp.Broadcast(r)
				t0 := time.Now()
				parts, _, err := core.MapRoundSplits(ctx, file, method, prm, r, bcast, splits, ws)
				if err != nil {
					return err
				}
				mapT += time.Since(t0)
				c, err := codecTime(parts)
				if err != nil {
					return err
				}
				codecT += c
				t0 = time.Now()
				if err := rp.ReduceRound(ctx, r, parts); err != nil {
					return err
				}
				mergeT += time.Since(t0)
			}
		}
		k := methodKey(meth)
		m.set("core.map_s."+k, "s", mapT.Seconds())
		m.set("core.merge_s."+k, "s", mergeT.Seconds())
		m.set("core.codec_s."+k, "s", codecT.Seconds())
	}
	return nil
}

// codecTime prices shipping partials the way a worker answers a map RPC
// and the coordinator reads it: the partial codec inside the dist frame.
func codecTime(parts []core.SplitPartial) (time.Duration, error) {
	t0 := time.Now()
	frame := dist.EncodeMapResponse(&dist.MapResponse{JobID: "replay", Partials: core.EncodePartials(parts)})
	resp, err := dist.DecodeMapResponse(frame)
	if err != nil {
		return 0, err
	}
	if _, err := core.DecodePartials(resp.Partials); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// runtimeSample is a reading of the process's runtime counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}
