package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"wavelethist/serve"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{5, 10, 19, 20, 100, 999, 1000, 1001, 9999, 10000, 50000} {
		pct := tailPct(n, 99)
		if pct == 0 {
			if float64(n)*0.5 >= minBeyond {
				t.Errorf("n=%d: no tail reported although the median has %d beyond", n, n/2)
			}
			continue
		}
		if beyond := float64(n) * (1 - pct/100); beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: p%v has only %.1f samples beyond it", n, pct, beyond)
		}
		for _, higher := range tailLadder {
			if higher > pct && higher <= 99 && float64(n)*(1-higher/100) >= minBeyond {
				t.Errorf("n=%d: reported p%v but p%v also has %d samples beyond", n, pct, higher, minBeyond)
			}
		}
	}
	if got := tailPct(100000, 99); got != 99 {
		t.Errorf("a metric capped at p99 reported p%v", got)
	}
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i)
	}
	d := summarize(xs, 99)
	if d.N != 250 || d.TailPct != 95 {
		t.Errorf("250 samples: got n=%d tail p%v, want n=250 tail p95", d.N, d.TailPct)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Microsecond},
		{"one child", []interval{iv(10, 40)}, 70 * time.Microsecond},
		// Scatter-gather: two shard calls overlapping by 10µs count once.
		{"overlapping", []interval{iv(10, 40), iv(30, 60)}, 50 * time.Microsecond},
		{"nested", []interval{iv(10, 80), iv(20, 30)}, 30 * time.Microsecond},
		{"clipped to parent", []interval{iv(-20, 10), iv(90, 150)}, 80 * time.Microsecond},
		{"disjoint", []interval{iv(0, 10), iv(50, 60), iv(20, 30)}, 70 * time.Microsecond},
	}
	for _, c := range cases {
		if got := selfTime(iv(0, 100), c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	stream := func(seed uint64, client int, batches bool) []request {
		s := newReadStream(seed, "read-client", client, batches)
		out := make([]request, 500)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	seeds := func(seed uint64) []uint64 {
		b := newBuildSeeds(seed)
		out := make([]uint64, 50)
		for i := range out {
			out[i] = b.next()
		}
		return out
	}
	if !reflect.DeepEqual(stream(7, 0, true), stream(7, 0, true)) {
		t.Error("same seed gave different read streams")
	}
	if reflect.DeepEqual(stream(7, 0, true), stream(8, 0, true)) {
		t.Error("different seeds gave the same read stream")
	}
	if reflect.DeepEqual(stream(7, 0, true), stream(7, 1, true)) {
		t.Error("two clients of one seed share a read stream")
	}
	if !reflect.DeepEqual(updateSchedule(7, updateRate, time.Second), updateSchedule(7, updateRate, time.Second)) {
		t.Error("same seed gave different update schedules")
	}
	a := seeds(7)
	if !reflect.DeepEqual(a, seeds(7)) {
		t.Error("same seed gave different build-seed sequences")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if s <= warmupSeed || seen[s] {
			t.Fatalf("build seed %d repeats or collides with the warm-up seed", s)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(a, seeds(8)) {
		t.Error("different seeds gave the same build-seed sequence")
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	queue := []scheduled{
		{Seq: 0, Due: 0},
		{Seq: 1, Due: 2 * time.Millisecond},
		{Seq: 2, Due: 4 * time.Millisecond},
	}
	const stall = 30 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	samples, err := runOpenLoop(t.Context(), start, queue, func(_ request, seq int) (int, []byte, error) {
		if seq == 0 {
			time.Sleep(stall)
		}
		return 200, nil, nil
	})
	if err != nil || len(samples) != 3 {
		t.Fatalf("got %d samples, err %v", len(samples), err)
	}
	for i, s := range samples {
		if want := start.Add(queue[i].Due); !s.Due.Equal(want) {
			t.Errorf("request %d: due %v, want %v", i, s.Due, want)
		}
	}
	// The stall on request 0 delays requests 1 and 2; their latency must
	// include that wait, not just their own service time.
	for i := 1; i < 3; i++ {
		s := samples[i]
		if wantMin := stall - queue[i].Due; s.latency() < wantMin || s.late() < wantMin {
			t.Errorf("request %d: latency %v, late %v; want both >= %v", i, s.latency(), s.late(), wantMin)
		}
		if s.Done.Sub(s.Sent) > 5*time.Millisecond {
			t.Errorf("request %d: own service time %v, want ~0", i, s.Done.Sub(s.Sent))
		}
	}
}

// The shard side must find a cross-shard batch's request ID from the
// sub-batch the router forwards, which it re-encodes from the client's
// queries.
func TestBatchIDSurvivesRouterRegrouping(t *testing.T) {
	ids := &batchIDs{}
	qs := []serve.BatchQuery{{Op: "point", Key: 42}, {Op: "range", Lo: 0, Hi: 99}, {Op: "point"}}
	ids.register("hist-1", qs, "r0-7")
	b, err := json.Marshal(struct {
		Queries []serve.BatchQuery `json:"queries"`
	}{qs})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Queries []serve.BatchQuery `json:"queries"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if rid := ids.lookup("hist-1", got.Queries); rid != "r0-7" {
		t.Errorf("lookup after a JSON round trip = %q, want r0-7", rid)
	}
	if rid := ids.lookup("hist-1", got.Queries); rid != "" {
		t.Errorf("a sub-batch ID was handed out twice")
	}
}

func TestWindowedTailIgnoresOneBadWindowNotRecurringStalls(t *testing.T) {
	t0 := time.Unix(0, 0)
	xs := make([]timed, 5000)
	for i := range xs {
		xs[i] = timed{t0.Add(time.Duration(i) * time.Millisecond), 100 + float64(i%7)}
	}
	// A host stall spoils 100 consecutive requests: 2% of all samples,
	// enough to move a single p99 over every sample onto the stall.
	for i := 2100; i < 2200; i++ {
		xs[i].v = 10000
	}
	var all []float64
	for _, x := range xs {
		all = append(all, x.v)
	}
	if p99 := summarize(all, 99).Tail; p99 != 10000 {
		t.Fatalf("test premise: plain p99 = %v, want the stall", p99)
	}
	tail, pct, windows := windowedTail(xs, 99)
	if windows != 5 || pct != 99 {
		t.Errorf("got %d windows at p%v, want 5 windows of 1000 at p99", windows, pct)
	}
	if tail > 106 {
		t.Errorf("windowed p99 = %v, want the clean windows' ~106", tail)
	}
	// Two more stalls, so three windows of five hold one. A stall that
	// recurs like this is the program's, not one burst of host noise, and
	// the tail must show it.
	for i := 3100; i < 3120; i++ {
		xs[i].v = 10000
	}
	for i := 4100; i < 4120; i++ {
		xs[i].v = 10000
	}
	if tail, _, _ := windowedTail(xs, 99); tail != 10000 {
		t.Errorf("stalls in 3 of 5 windows: windowed p99 = %v, want the stall", tail)
	}
	if _, pct, windows := windowedTail(xs[:500], 99); windows != 1 || pct != 95 {
		t.Errorf("500 samples: %d windows at p%v, want 1 window at p95", windows, pct)
	}
}

func TestLedgerComparesOnlyIdenticalCode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exact-counts.json")
	counts := func(comm int64) exactCounts {
		return exactCounts{
			ModelCommBytes: map[string]int64{"sendv": comm}, RecordsRead: map[string]int64{"sendv": 100},
			CandidateSetSize: 7, SSERatio: 1.25, CycleWireBytes: 5000,
		}
	}
	check := func(source string, seed uint64, c exactCounts) []string {
		t.Helper()
		diffs, err := checkLedger(path, source, seed, c)
		if err != nil {
			t.Fatal(err)
		}
		return diffs
	}
	if d := check("aaaa", 1, counts(10)); d != nil {
		t.Fatalf("first run reported %v", d)
	}
	if d := check("aaaa", 1, counts(10)); d != nil {
		t.Errorf("identical rerun reported %v", d)
	}
	if d := check("aaaa", 1, counts(11)); len(d) != 1 {
		t.Errorf("same code and seed with a moved count: got %v, want one difference", d)
	}
	// Changed code that moves a count, on a seed the old code recorded.
	if d := check("bbbb", 1, counts(5)); d != nil {
		t.Errorf("other code was compared with the old counts: %v", d)
	}
	if d := check("bbbb", 1, counts(5)); d != nil {
		t.Errorf("rerun of the changed code reported %v", d)
	}
	if _, err := checkLedger(path, "", 1, counts(10)); err == nil {
		t.Error("a run without a source digest was checked")
	}
}
