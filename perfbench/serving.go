package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wavelethist"
	"wavelethist/serve"
)

// client is one load-generator connection: its own http.Transport, so
// its requests reuse one keep-alive connection, with dials counted.
type client struct {
	id    int
	hc    *http.Client
	base  string
	names []string
	rec   *recorder
	ids   *batchIDs
}

func newClient(id int, sys *system, dials *atomic.Int64) *client {
	d := &net.Dialer{}
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return &client{
		id: id, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		base: sys.rnode.url, names: sys.names(), rec: sys.rec, ids: sys.ids,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func rid(phase string, client, seq int) string {
	return phase + strconv.Itoa(client) + "-" + strconv.Itoa(seq)
}

// httpRequest renders a benchmark request as the HTTP request a user
// would send through the router. The request ID rides along as the rid
// query parameter, which no layer interprets.
func (c *client) httpRequest(req request, id string) (*http.Request, error) {
	switch req.Kind {
	case opPoint:
		return http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/hist/%s/point?key=%d&rid=%s",
			c.base, c.names[req.Q.Name], req.Q.Key, id), nil)
	case opRange:
		return http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/hist/%s/range?lo=%d&hi=%d&rid=%s",
			c.base, c.names[req.Q.Name], req.Q.Lo, req.Q.Hi, id), nil)
	case opBatch:
		type namedQuery struct {
			Name string `json:"name"`
			serve.BatchQuery
		}
		qs := make([]namedQuery, len(req.Batch))
		groups := make([][]serve.BatchQuery, len(c.names))
		for i, q := range req.Batch {
			bq := toBatchQuery(q)
			qs[i] = namedQuery{Name: c.names[q.Name], BatchQuery: bq}
			groups[q.Name] = append(groups[q.Name], bq)
		}
		if c.rec.on.Load() {
			for n, g := range groups {
				if len(g) > 0 {
					c.ids.register(c.names[n], g, id)
				}
			}
		}
		body, err := json.Marshal(map[string]any{"queries": qs})
		if err != nil {
			return nil, err
		}
		return jsonRequest(c.base+"/v1/query?rid="+id, body)
	default:
		ups := make([]serve.KeyUpdate, len(req.Updates))
		for i, u := range req.Updates {
			ups[i] = serve.KeyUpdate{Key: u.Key, Delta: u.Delta}
		}
		body, err := json.Marshal(map[string]any{"updates": ups})
		if err != nil {
			return nil, err
		}
		return jsonRequest(c.base+"/v1/hist/"+c.names[req.Q.Name]+"/updates?rid="+id, body)
	}
}

func jsonRequest(url string, body []byte) (*http.Request, error) {
	r, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err == nil {
		r.Header.Set("Content-Type", "application/json")
	}
	return r, err
}

func toBatchQuery(q query) serve.BatchQuery {
	if q.Op == opPoint {
		return serve.BatchQuery{Op: "point", Key: q.Key}
	}
	return serve.BatchQuery{Op: "range", Lo: q.Lo, Hi: q.Hi}
}

// do sends one request and reads the whole response. The client span
// covers sending through reading the body; building the request and
// parsing the answer stay outside it.
func (c *client) do(hr *http.Request, op opKind, id string) (int, []byte, error) {
	start := time.Now()
	res, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if c.rec.on.Load() {
		c.rec.record(layerClient, op.String(), id, "client"+strconv.Itoa(c.id), start, time.Now())
	}
	return res.StatusCode, body, err
}

// served is one answered request kept for verification after the phase.
type served struct {
	Req     request
	RID     string
	Start   time.Time // when it was sent, or due for open-loop requests
	Latency time.Duration
	Late    time.Duration
	Status  int
	Body    []byte
	Err     error
}

// servePhase is the outcome of one serving phase.
type servePhase struct {
	out     []served
	elapsed time.Duration
	dials   int64
}

// closedLoop runs one client per stream, each sending its next request
// only after the previous one completes, until stop closes.
func closedLoop(ctx context.Context, sys *system, phase string, streams []*readStream, stop <-chan struct{}, dials *atomic.Int64) []served {
	results := make([][]served, len(streams))
	var wg sync.WaitGroup
	for ci, stream := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(ci, sys, dials)
			defer c.close()
			for seq := 0; ctx.Err() == nil; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				req := stream.next()
				id := rid(phase, ci, seq)
				s := served{Req: req, RID: id}
				hr, err := c.httpRequest(req, id)
				if err != nil {
					s.Err = err
				} else {
					s.Start = time.Now()
					s.Status, s.Body, s.Err = c.do(hr, req.Kind, id)
					s.Latency = time.Since(s.Start)
				}
				results[ci] = append(results[ci], s)
			}
		}()
	}
	wg.Wait()
	var out []served
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// runReadPhase is serve-read: nproc closed-loop clients sending points,
// ranges and cross-shard batches for window.
func runReadPhase(ctx context.Context, sys *system, seed uint64, clients int, window time.Duration) servePhase {
	var dials atomic.Int64
	streams := make([]*readStream, clients)
	for i := range streams {
		streams[i] = newReadStream(seed, "read-client", i, true)
	}
	stop := make(chan struct{})
	t := time.AfterFunc(window, func() { close(stop) })
	defer t.Stop()
	start := time.Now()
	out := closedLoop(ctx, sys, "r", streams, stop, &dials)
	return servePhase{out: out, elapsed: time.Since(start), dials: dials.Load()}
}

// runWritePhase is serve-write: one connection sends the update stream
// open-loop at updateRate for window, each update timed from its due
// time, while nproc closed-loop readers send points and ranges until the
// last update completes. The readers keep every core busy, as serve-read
// does, so read tails measure contention with the writes rather than how
// fast an idle virtual CPU wakes up.
func runWritePhase(ctx context.Context, sys *system, seed uint64, clients int, window time.Duration) (servePhase, error) {
	var dials atomic.Int64
	readers := clients
	streams := make([]*readStream, readers)
	for i := range streams {
		streams[i] = newReadStream(seed, "write-read-client", i, false)
	}
	sched := updateSchedule(seed, updateRate, window)
	uc := newClient(readers, sys, &dials)
	defer uc.close()
	// Requests are rendered before the phase starts, so the sender does
	// no encoding work between due times.
	hrs := make([]*http.Request, len(sched))
	for i, it := range sched {
		var err error
		if hrs[i], err = uc.httpRequest(it.Req, rid("u", 0, it.Seq)); err != nil {
			return servePhase{}, err
		}
	}
	stop := make(chan struct{})
	var reads []served
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		reads = closedLoop(ctx, sys, "w", streams, stop, &dials)
	}()
	start := time.Now().Add(20 * time.Millisecond)
	samples, err := runOpenLoop(ctx, start, sched, func(req request, seq int) (int, []byte, error) {
		return uc.do(hrs[seq], req.Kind, rid("u", 0, seq))
	})
	close(stop)
	<-readsDone
	p := servePhase{elapsed: time.Since(start), dials: dials.Load()}
	for i, s := range samples {
		p.out = append(p.out, served{
			Req: sched[i].Req, RID: rid("u", 0, s.Seq), Start: s.Due, Latency: s.latency(), Late: s.late(),
			Status: s.Status, Body: s.Body, Err: s.Err,
		})
	}
	p.out = append(p.out, reads...)
	return p, err
}

// versioned resolves (histogram, registry version) to the library
// histogram that version must answer with. Reads under writes are
// checked against the library's own replay of the same update stream.
type versioned struct {
	base  []*wavelethist.Histogram
	hists []map[uint64]*wavelethist.Histogram
}

func (v *versioned) get(name int, version uint64) *wavelethist.Histogram {
	return v.hists[name][version]
}

type estimateBody struct {
	Version  uint64   `json:"version"`
	Estimate *float64 `json:"estimate"`
}

// answer is the library's answer to one query.
func answer(h *wavelethist.Histogram, q query) float64 {
	if q.Op == opPoint {
		return h.PointEstimate(q.Key)
	}
	return h.RangeCount(q.Lo, q.Hi)
}

// verifyReads checks every read of a phase against the library answer on
// the identical histogram, spread over every core; it returns how many
// requests failed or were wrong.
func verifyReads(p *servePhase, hists *versioned) (failed int, firstErr string) {
	parts := runtime.NumCPU()
	fails := make([]int, parts)
	whys := make([]string, parts)
	var wg sync.WaitGroup
	for k := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails[k], whys[k] = verifySlice(p.out[k*len(p.out)/parts:(k+1)*len(p.out)/parts], hists)
		}()
	}
	wg.Wait()
	for k := range parts {
		failed += fails[k]
		if firstErr == "" {
			firstErr = whys[k]
		}
	}
	return failed, firstErr
}

func verifySlice(out []served, hists *versioned) (failed int, firstErr string) {
	fail := func(s *served, why string) {
		failed++
		if firstErr == "" {
			firstErr = fmt.Sprintf("%s %s: %s", s.Req.Kind, s.RID, why)
		}
	}
	for i := range out {
		s := &out[i]
		if s.Req.Kind == opUpdate {
			continue
		}
		if s.Err != nil || s.Status != http.StatusOK {
			fail(s, fmt.Sprintf("HTTP %d %v %s", s.Status, s.Err, bytes.TrimSpace(s.Body)))
			continue
		}
		if s.Req.Kind == opBatch {
			var out struct {
				Results []serve.BatchResult `json:"results"`
			}
			if err := json.Unmarshal(s.Body, &out); err != nil || len(out.Results) != len(s.Req.Batch) {
				fail(s, "malformed batch response")
				continue
			}
			for j, q := range s.Req.Batch {
				h := hists.base[q.Name]
				if r := out.Results[j]; r.Error != "" || r.Estimate != answer(h, q) {
					fail(s, fmt.Sprintf("sub-query %d: got %v %q want %v", j, r.Estimate, r.Error, answer(h, q)))
					break
				}
			}
			continue
		}
		var est estimateBody
		if err := json.Unmarshal(s.Body, &est); err != nil || est.Estimate == nil {
			fail(s, "malformed estimate response")
			continue
		}
		h := hists.get(s.Req.Q.Name, est.Version)
		if h == nil {
			fail(s, fmt.Sprintf("answered from unknown version %d", est.Version))
			continue
		}
		if want := answer(h, s.Req.Q); *est.Estimate != want {
			fail(s, fmt.Sprintf("got %v want %v (version %d)", *est.Estimate, want, est.Version))
		}
	}
	return failed, firstErr
}

type updateBody struct {
	Applied     int    `json:"applied"`
	Republished bool   `json:"republished"`
	Version     uint64 `json:"version"`
}

// replayUpdates applies the write phases' update streams, in order, to
// library maintainers seeded the way the server seeds its own (from the
// served histogram, shadow 0), and records the library histogram behind
// every version the server republished. All updates go through one
// connection, so this is the order the primaries applied them in. It
// also times each POST's worth of maintainer work, by request ID.
func replayUpdates(phases []*servePhase, base []*wavelethist.Histogram, initial []uint64) (*versioned, map[string]time.Duration, int, string) {
	v := &versioned{base: base, hists: make([]map[uint64]*wavelethist.Histogram, len(base))}
	maint := make([]*wavelethist.MaintainedHistogram, len(base))
	pending := make([]int, len(base))
	for i, h := range base {
		v.hists[i] = map[uint64]*wavelethist.Histogram{initial[i]: h}
	}
	times := map[string]time.Duration{}
	failed, firstErr := 0, ""
	fail := func(s *served, why string) {
		failed++
		if firstErr == "" {
			firstErr = fmt.Sprintf("update %s: %s", s.RID, why)
		}
	}
	for _, p := range phases {
		for i := range p.out {
			s := &p.out[i]
			if s.Req.Kind != opUpdate {
				continue
			}
			if s.Err != nil || s.Status != http.StatusOK {
				fail(s, fmt.Sprintf("HTTP %d %v %s", s.Status, s.Err, bytes.TrimSpace(s.Body)))
				continue
			}
			var ub updateBody
			if err := json.Unmarshal(s.Body, &ub); err != nil || ub.Applied != len(s.Req.Updates) {
				fail(s, "malformed update response")
				continue
			}
			n := s.Req.Q.Name
			start := time.Now()
			if maint[n] == nil {
				m, err := wavelethist.MaintainHistogram(base[n], serveK, 0)
				if err != nil {
					fail(s, err.Error())
					continue
				}
				maint[n] = m
			}
			for _, u := range s.Req.Updates {
				maint[n].Update(u.Key, u.Delta)
			}
			pending[n] += len(s.Req.Updates)
			republish := pending[n] >= republishEvery
			var h *wavelethist.Histogram
			if republish {
				h = maint[n].Histogram()
				pending[n] = 0
			}
			times[s.RID] = time.Since(start)
			if republish != ub.Republished {
				fail(s, fmt.Sprintf("republished=%v, library expects %v", ub.Republished, republish))
				continue
			}
			if republish {
				v.hists[n][ub.Version] = h
			}
		}
	}
	return v, times, failed, firstErr
}

// republishEvery is serve's default republish interval, in applied
// updates. The benchmark sets no serve knob, so the default applies.
const republishEvery = 256
