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
	"sync/atomic"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/ha"
	"wavelethist/internal/core"
	"wavelethist/serve"
)

// node is one in-process server behind a real loopback listener.
type node struct {
	url      string
	srv      *http.Server
	done     chan struct{}
	newConns atomic.Int64 // connections accepted, from the ConnState hook
}

func startNode(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.srv = &http.Server{
		Handler: h,
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				n.newConns.Add(1)
			}
		},
	}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

func (n *node) close() {
	n.srv.Close()
	<-n.done
}

// shard is one serving shard: a primary and one read replica following
// it, each on its own listener.
type shard struct {
	id               string
	name             string // the histogram this shard serves
	primary, replica *serve.Server
	pnode, rnode     *node
	ptrace           *shardTrace
	follower         *ha.Replica
}

// system is everything the benchmark measures, built only through the
// repo's stable surfaces with zero-value configs plus deployment fields:
// a coordinator and nproc waveworkers for builds, and a routed, sharded,
// replicated serving tier.
type system struct {
	rec *recorder
	ids *batchIDs

	ds      *wavelethist.Dataset
	tr      *tracingTransport
	coord   *dist.Coordinator
	workers []*node

	shards []*shard
	router *ha.Router
	rnode  *node
}

// serveDataset is the recipe of the source dataset for served histogram i.
func serveDataset(seed uint64, i int) serve.DatasetRequest {
	return serve.DatasetRequest{
		Name: "src-" + strconv.Itoa(i), Kind: "zipf",
		Records: serveRecords, Domain: serveDomain, Alpha: buildAlpha,
		Seed: derive(seed, "serve-dataset-"+strconv.Itoa(i)),
	}
}

// coreParams mirrors what wavelethist.Options{K: buildK, Seed: seed}
// resolves to for the build dataset, for calls below the root API.
func coreParams(seed uint64) core.Params {
	return core.Params{U: buildDomain, K: buildK, Seed: seed, CombineEnabled: true}.Defaults()
}

// setup builds the whole system for one seed and returns once it is
// ready: workers hold the dataset, the served histograms are built and
// published, and every replica has synced them.
func setup(ctx context.Context, seed uint64, rec *recorder) (_ *system, err error) {
	s := &system{rec: rec, ids: &batchIDs{}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.ds, err = wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: buildRecords, Domain: buildDomain, Alpha: buildAlpha,
		Seed: derive(seed, "build-dataset"),
	})
	if err != nil {
		return nil, err
	}
	s.tr = &tracingTransport{inner: dist.NewHTTPTransport(), rec: rec}
	s.coord = dist.NewCoordinator(s.tr, dist.Config{})
	for i := 0; i < runtime.NumCPU(); i++ {
		w := dist.NewWorker("w"+strconv.Itoa(i), 0)
		n, err := startNode(traceWorker(w.Handler(), rec, w.ID()))
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, n)
		s.coord.Register(w.ID(), n.url, w.Capacity())
	}
	if err := s.materialize(ctx); err != nil {
		return nil, err
	}
	if err := s.startServing(ctx, seed); err != nil {
		return nil, err
	}
	return s, nil
}

// materialize sends every worker one single-split map RPC under the
// warm-up seed, which makes the worker generate its copy of the dataset.
func (s *system) materialize(ctx context.Context) error {
	errs := make(chan error, len(s.workers))
	for i, n := range s.workers {
		go func() {
			resp, _, _, err := s.tr.inner.MapSplits(ctx, n.url, &dist.MapRequest{
				JobID: "setup-" + strconv.Itoa(i), Method: string(wavelethist.TwoLevelS),
				Params: coreParams(warmupSeed), Dataset: *s.ds.Spec(), Splits: []int{0},
			})
			if err == nil && resp.Error != "" {
				err = fmt.Errorf("worker %s: %s", n.url, resp.Error)
			}
			errs <- err
		}()
	}
	var first error
	for range s.workers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *system) startServing(ctx context.Context, seed uint64) error {
	var shards []ha.Shard
	for i := 0; i < numShards; i++ {
		sh := &shard{id: "s" + strconv.Itoa(i)}
		var err error
		if sh.primary, err = serve.NewServer(serve.Config{Shard: sh.id}); err != nil {
			return err
		}
		if sh.replica, err = serve.NewServer(serve.Config{Shard: sh.id, ReadOnly: true}); err != nil {
			return err
		}
		sh.ptrace = &shardTrace{h: sh.primary, rec: s.rec, ids: s.ids, node: sh.id + "/primary"}
		if sh.pnode, err = startNode(sh.ptrace); err != nil {
			return err
		}
		rtrace := &shardTrace{h: sh.replica, rec: s.rec, ids: s.ids, node: sh.id + "/replica"}
		if sh.rnode, err = startNode(rtrace); err != nil {
			return err
		}
		sh.follower = ha.NewReplica(sh.replica, sh.pnode.url, 0)
		s.shards = append(s.shards, sh)
		shards = append(shards, ha.Shard{ID: sh.id, Primary: sh.pnode.url, Replicas: []string{sh.rnode.url}})
	}
	var err error
	if s.router, err = ha.NewRouter(shards); err != nil {
		return err
	}
	if s.rnode, err = startNode(traceRouter(s.router, s.rec)); err != nil {
		return err
	}
	if err := s.pickNames(); err != nil {
		return err
	}
	// Each primary builds its histogram through the public API, the way
	// an operator would: create the source dataset, then POST /v1/build
	// through the router, which routes it to the owning shard.
	jobs := make([]string, len(s.shards))
	for i, sh := range s.shards {
		if err := postJSON(ctx, sh.pnode.url+"/v1/datasets", serveDataset(seed, i), http.StatusCreated, nil); err != nil {
			return err
		}
		var acc struct{ Job string }
		err := postJSON(ctx, s.rnode.url+"/v1/build", serve.BuildRequest{
			Name: sh.name, Dataset: serveDataset(seed, i).Name,
			Method: string(wavelethist.SendV), K: serveK,
		}, http.StatusAccepted, &acc)
		if err != nil {
			return err
		}
		jobs[i] = acc.Job
	}
	for i, sh := range s.shards {
		if err := s.waitJob(ctx, jobs[i], sh.id); err != nil {
			return err
		}
		pv, err := primaryVersion(ctx, sh)
		if err != nil {
			return err
		}
		if err := sh.follower.SyncOnce(ctx); err != nil {
			return fmt.Errorf("replica %s sync: %w", sh.id, err)
		}
		if got := sh.follower.Version(); got < pv {
			return fmt.Errorf("replica %s synced to version %d, primary is at %d", sh.id, got, pv)
		}
		sh.follower.Start()
	}
	return nil
}

// pickNames chooses, deterministically, one histogram name per shard.
func (s *system) pickNames() error {
	for i := 0; i < 1000; i++ {
		name := "hist-" + strconv.Itoa(i)
		owner := s.router.Shard(name).ID
		for _, sh := range s.shards {
			if sh.id == owner && sh.name == "" {
				sh.name = name
			}
		}
	}
	for _, sh := range s.shards {
		if sh.name == "" {
			return fmt.Errorf("no histogram name hashes to shard %s", sh.id)
		}
	}
	return nil
}

func (s *system) waitJob(ctx context.Context, job, shardID string) error {
	for {
		var v serve.JobView
		if err := getJSON(ctx, s.rnode.url+"/v1/jobs/"+job+"?shard="+shardID, &v); err != nil {
			return err
		}
		switch v.State {
		case serve.JobDone:
			return nil
		case serve.JobFailed, serve.JobCanceled:
			return fmt.Errorf("serve build %s on %s: %s %s", job, shardID, v.State, v.Error)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// names returns the served histogram names, indexed like query.Name.
func (s *system) names() []string {
	out := make([]string, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.name
	}
	return out
}

// primaryVersion reads a primary's registry version from GET /v1/stats.
func primaryVersion(ctx context.Context, sh *shard) (uint64, error) {
	var st struct {
		RegistryVersion uint64 `json:"registry_version"`
	}
	err := getJSON(ctx, sh.pnode.url+"/v1/stats", &st)
	return st.RegistryVersion, err
}

// close stops every server and background loop the system started.
func (s *system) close() {
	if s.rnode != nil {
		s.rnode.close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, sh := range s.shards {
		if sh.follower != nil {
			sh.follower.Stop()
		}
		for _, n := range []*node{sh.pnode, sh.rnode} {
			if n != nil {
				n.close()
			}
		}
		for _, srv := range []*serve.Server{sh.primary, sh.replica} {
			if srv != nil {
				srv.Close()
			}
		}
	}
	for _, n := range s.workers {
		n.close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

var setupClient = &http.Client{Timeout: 2 * time.Minute}

func postJSON(ctx context.Context, url string, body any, want int, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(req, want, out)
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(req, http.StatusOK, out)
}

func doJSON(req *http.Request, want int, out any) error {
	res, err := setupClient.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, res.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}
