package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavelethist/dist"
	"wavelethist/serve"
)

// Span layers, outermost first. A span's parent is the span of the next
// layer out that carries the same request ID.
const (
	layerClient = "client"      // load generator: request sent to response read
	layerRouter = "ha.router"   // ha.Router.ServeHTTP
	layerShard  = "serve"       // serve.Server.ServeHTTP on a shard node
	layerBuild  = "build"       // one wavelethist.BuildDistributed call
	layerRPC    = "dist.rpc"    // one coordinator→worker map RPC
	layerWorker = "dist.worker" // dist.Worker.Handler serving that RPC
)

var parentLayer = map[string]string{
	layerRouter: layerClient,
	layerShard:  layerRouter,
	layerRPC:    layerBuild,
	layerWorker: layerRPC,
}

// span is one timed call into a layer's public surface.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"name"`
	Op     string `json:"op,omitempty"`
	RID    string `json:"rid"`
	// Node names the serving process for shard spans ("s0/primary").
	Node  string    `json:"node,omitempty"`
	Start time.Time `json:"-"`
	End   time.Time `json:"-"`
	// StartUS and EndUS are microseconds since the recorder started.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

func (s *span) interval() interval { return interval{s.Start, s.End} }

// recorder keeps spans in memory while tracing is on. With tracing off
// every wrapper reduces to one atomic load.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Int64
	t0     time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) record(layer, op, rid, node string, start, end time.Time) {
	s := span{
		ID: r.nextID.Add(1), Layer: layer, Op: op, RID: rid, Node: node,
		Start: start, End: end,
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded since the last take, with parents
// linked by request ID, and clears the buffer.
func (r *recorder) take() []span {
	r.mu.Lock()
	out := r.spans
	r.spans = nil
	r.mu.Unlock()
	byKey := make(map[string]int64, len(out))
	for _, s := range out {
		byKey[s.Layer+"|"+s.RID] = s.ID
	}
	for i := range out {
		s := &out[i]
		s.StartUS = micros(s.Start.Sub(r.t0))
		s.EndUS = micros(s.End.Sub(r.t0))
		if pl, ok := parentLayer[s.Layer]; ok {
			s.Parent = byKey[pl+"|"+s.RID]
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rpcID names one map RPC the same way on both sides of the wire: the
// coordinator's job ID, the round, and the assigned splits.
func rpcID(req *dist.MapRequest) string {
	return fmt.Sprintf("%s/r%d/%v", req.JobID, req.Round, req.Splits)
}

// tracingTransport is the coordinator's dist.Transport: the library's
// HTTP transport plus a span per map RPC.
type tracingTransport struct {
	inner *dist.HTTPTransport
	rec   *recorder
}

func (t *tracingTransport) MapSplits(ctx context.Context, addr string, req *dist.MapRequest) (*dist.MapResponse, int64, int64, error) {
	if !t.rec.on.Load() {
		return t.inner.MapSplits(ctx, addr, req)
	}
	start := time.Now()
	resp, reqBytes, respBytes, err := t.inner.MapSplits(ctx, addr, req)
	t.rec.record(layerRPC, "map", rpcID(req), addr, start, time.Now())
	return resp, reqBytes, respBytes, err
}

func (t *tracingTransport) Release(ctx context.Context, addr string, req *dist.ReleaseRequest) error {
	return t.inner.Release(ctx, addr, req)
}

func (t *tracingTransport) Ping(ctx context.Context, addr string) error {
	return t.inner.Ping(ctx, addr)
}

// traceWorker wraps dist.Worker.Handler: a span per binary map request,
// keyed like the coordinator-side RPC span. The request frame is decoded
// before the span starts, so the decode is not charged to the worker.
func traceWorker(h http.Handler, rec *recorder, node string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() || r.URL.Path != dist.PathMap || r.Header.Get("Content-Type") != dist.ContentTypeBinary {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rid := ""
		if req, err := dist.DecodeMapRequest(body); err == nil {
			rid = rpcID(req)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.record(layerWorker, "map", rid, node, start, time.Now())
	})
}

// routeOp classifies a /v1 request path into the benchmark's op names.
func routeOp(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/point"):
		return opPoint.String()
	case strings.HasSuffix(p, "/range"):
		return opRange.String()
	case strings.HasSuffix(p, "/updates"):
		return opUpdate.String()
	case strings.HasSuffix(p, "/query"):
		return opBatch.String()
	case p == "/v1/repl/pull":
		return "repl_pull"
	}
	return "other"
}

// traceRouter wraps the ha.Router with a span per request. The request ID
// travels as the rid query parameter, which the router forwards
// unchanged on per-name requests.
func traceRouter(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.record(layerRouter, routeOp(r), r.URL.Query().Get("rid"), "router", start, time.Now())
	})
}

// batchIDs maps a per-shard sub-batch to the request that caused it. The
// router rebuilds cross-shard batches without the client's query
// parameters, so the shard side identifies a sub-batch by a hash of its
// histogram name and queries, registered by the client before sending.
type batchIDs struct{ m sync.Map }

func batchKey(name string, qs []serve.BatchQuery) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	h.Write([]byte(name))
	for _, q := range qs {
		h.Write([]byte(q.Op))
		for _, v := range [...]int64{q.Key, q.Lo, q.Hi} {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func (b *batchIDs) register(name string, qs []serve.BatchQuery, rid string) {
	b.m.Store(batchKey(name, qs), rid)
}

func (b *batchIDs) lookup(name string, qs []serve.BatchQuery) string {
	if v, ok := b.m.LoadAndDelete(batchKey(name, qs)); ok {
		return v.(string)
	}
	return ""
}

// shardTrace is one shard node's tracing wrapper around serve.Server. It
// also records each replication pull served by a primary.
type shardTrace struct {
	h     http.Handler
	rec   *recorder
	ids   *batchIDs
	node  string
	pulls atomic.Int64
}

func (s *shardTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := routeOp(r)
	if op == "repl_pull" {
		s.pulls.Add(1)
	}
	if !s.rec.on.Load() {
		s.h.ServeHTTP(w, r)
		return
	}
	rid := r.URL.Query().Get("rid")
	if op == opBatch.String() {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			Queries []serve.BatchQuery `json:"queries"`
		}
		if json.Unmarshal(body, &req) == nil {
			rid = s.ids.lookup(nameFromPath(r.URL.Path), req.Queries)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	start := time.Now()
	s.h.ServeHTTP(w, r)
	s.rec.record(layerShard, op, rid, s.node, start, time.Now())
}

// nameFromPath extracts {name} from /v1/hist/{name}/....
func nameFromPath(p string) string {
	p = strings.TrimPrefix(p, "/v1/hist/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}
