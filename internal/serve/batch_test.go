package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/fl"
)

// TestSolveBatchMixed drives one batch through every item outcome: a fresh
// solve, an exact duplicate (deduplicated onto the same solve), a cache hit
// planted by an earlier Solve, and a malformed item. Order must be
// preserved and the bad item must not fail the batch. The duplicate joins
// item 0's solve only while that solve is in flight, so the solver holds
// every solve after the planting one until the duplicate has joined.
func TestSolveBatchMixed(t *testing.T) {
	s := testSystem(t, 8, 1)
	var srv *Server
	var solves atomic.Int64
	srv = New(Config{Workers: 2, Solver: func(sys *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
		if solves.Add(1) > 1 {
			for wait := time.Now().Add(10 * time.Second); srv.Stats().Deduped == 0 && time.Now().Before(wait); {
				time.Sleep(time.Millisecond)
			}
		}
		return core.Optimize(sys, w, o)
	}})
	defer srv.Close()

	cached, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}

	drifted := driftGains(s, 0.5, rand.New(rand.NewSource(3)))
	reqs := []Request{
		{System: drifted, Weights: balanced()}, // fresh solve
		{System: drifted, Weights: balanced()}, // duplicate of item 0
		{System: s, Weights: balanced()},       // cache hit
		{},                                     // nil system
	}
	items := srv.SolveBatch(context.Background(), reqs, PriorityBulk)
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	if items[0].Err != nil || items[1].Err != nil {
		t.Fatalf("solve items failed: %v, %v", items[0].Err, items[1].Err)
	}
	if items[0].Response.Result.Objective != items[1].Response.Result.Objective {
		t.Errorf("duplicate items disagree: %v vs %v",
			items[0].Response.Result.Objective, items[1].Response.Result.Objective)
	}
	if items[2].Err != nil || items[2].Response.Source != SourceCache {
		t.Errorf("item 2 = (%v, %q), want cache hit", items[2].Err, items[2].Response.Source)
	}
	if items[2].Response.Result.Objective != cached.Result.Objective {
		t.Errorf("cache item objective %v != original %v", items[2].Response.Result.Objective, cached.Result.Objective)
	}
	if items[3].Err == nil {
		t.Error("nil-system item did not fail")
	}
	if err := drifted.Validate(items[0].Response.Result.Allocation, 1e-6); err != nil {
		t.Errorf("batch allocation infeasible: %v", err)
	}

	st := srv.Stats()
	if st.BatchRequests != 1 || st.BatchItems != 4 {
		t.Errorf("batch counters = (%d, %d), want (1, 4)", st.BatchRequests, st.BatchItems)
	}
	if st.Deduped != 1 {
		t.Errorf("deduped = %d, want 1 (duplicate batch item)", st.Deduped)
	}
}

// TestSolveBatchHTTP exercises POST /v1/solve-batch end to end: item order,
// per-item errors, and the priority knob's validation.
func TestSolveBatchHTTP(t *testing.T) {
	s := testSystem(t, 6, 1)
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	good := SolveRequestJSON{System: SystemToJSON(s)}
	good.Weights.W1, good.Weights.W2 = 0.5, 0.5
	bad := SolveRequestJSON{System: SystemToJSON(s), Mode: "nonsense"}
	body, _ := json.Marshal(SolveBatchRequestJSON{
		Requests: []SolveRequestJSON{good, bad, good},
		Priority: "interactive",
	})
	resp, err := http.Post(ts.URL+"/v1/solve-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out SolveBatchResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if !out.Results[0].OK || out.Results[0].Result == nil {
		t.Errorf("item 0 not ok: %+v", out.Results[0])
	}
	if out.Results[1].OK || out.Results[1].Error == "" {
		t.Errorf("malformed item 1 did not fail: %+v", out.Results[1])
	}
	// Items 0 and 2 are identical: item 2 deduplicates onto item 0's solve
	// (same in-flight call, not a cache hit) and must agree on the answer.
	if !out.Results[2].OK || out.Results[2].Result.Objective != out.Results[0].Result.Objective {
		t.Errorf("deduplicated item 2 = %+v, want item 0's answer", out.Results[2])
	}

	// Unknown priority is a request-level 400.
	body, _ = json.Marshal(SolveBatchRequestJSON{Requests: []SolveRequestJSON{good}, Priority: "urgent"})
	resp2, err := http.Post(ts.URL+"/v1/solve-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority: status %d, want 400", resp2.StatusCode)
	}
}

// TestWorkerPrefersInteractive parks a bulk backlog behind a gated
// single-worker solver, then submits an interactive request: the very next
// solve after the in-flight bulk task finishes must be the interactive one,
// with seven bulk tasks still queued ahead of it in arrival order.
func TestWorkerPrefersInteractive(t *testing.T) {
	bulkSys := testSystem(t, 4, 1)        // bulk instances: 4 devices
	interactiveSys := testSystem(t, 5, 2) // interactive instance: 5 devices
	started := make(chan int, 32)         // device count of each solve as it begins
	gate := make(chan struct{}, 32)
	srv := New(Config{
		Workers:        1,
		QueueDepth:     4,
		BulkQueueDepth: 64,
		DisableCache:   true, // every request must solve
		Solver: func(sys *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
			started <- sys.N()
			<-gate
			return core.Optimize(sys, w, o)
		},
	})
	defer srv.Close()

	rng := rand.New(rand.NewSource(5))
	bulk := make([]Request, 8)
	for i := range bulk {
		bulk[i] = Request{System: driftGains(bulkSys, 0.4, rng), Weights: balanced()}
	}
	batchDone := make(chan []BatchItem, 1)
	go func() { batchDone <- srv.SolveBatch(context.Background(), bulk, PriorityBulk) }()
	if n := <-started; n != 4 {
		t.Fatalf("first solve has %d devices, want a bulk instance (4)", n)
	}

	// The worker is inside bulk task 1. Submit the interactive request and
	// wait until it is parked in the interactive queue.
	interDone := make(chan error, 1)
	go func() {
		_, err := srv.Solve(context.Background(), Request{System: interactiveSys, Weights: balanced()})
		interDone <- err
	}()
	for len(srv.queue) == 0 {
		time.Sleep(time.Millisecond)
	}

	gate <- struct{}{} // finish bulk task 1
	if n := <-started; n != 5 {
		t.Fatalf("solve after the bulk task has %d devices, want the interactive instance (5) ahead of 7 queued bulk tasks", n)
	}
	close(gate) // drain everything
	if err := <-interDone; err != nil {
		t.Fatalf("interactive solve failed: %v", err)
	}
	for i, it := range <-batchDone {
		if it.Err != nil {
			t.Errorf("bulk item %d failed: %v", i, it.Err)
		}
	}
}

// TestInteractiveJoinPromotesBulkLeader pins the anti-starvation rule for
// fingerprint collisions across priorities: when a live Solve deduplicates
// onto a still-queued bulk batch item, that item is promoted onto the
// interactive queue and runs ahead of the rest of the bulk backlog.
func TestInteractiveJoinPromotesBulkLeader(t *testing.T) {
	sysA := testSystem(t, 4, 1)
	sysB := testSystem(t, 6, 2)
	sysC := testSystem(t, 8, 3)
	started := make(chan int, 32)
	gate := make(chan struct{}, 32)
	srv := New(Config{
		Workers:        1,
		QueueDepth:     4,
		BulkQueueDepth: 64,
		DisableCache:   true,
		Solver: func(sys *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
			started <- sys.N()
			<-gate
			return core.Optimize(sys, w, o)
		},
	})
	defer srv.Close()

	bulk := []Request{
		{System: sysA, Weights: balanced()},
		{System: sysB, Weights: balanced()},
		{System: sysC, Weights: balanced()},
	}
	batchDone := make(chan []BatchItem, 1)
	go func() { batchDone <- srv.SolveBatch(context.Background(), bulk, PriorityBulk) }()
	if n := <-started; n != 4 {
		t.Fatalf("first solve has %d devices, want the first bulk item (4)", n)
	}

	// The worker is inside bulk item A; items B and C are queued as bulk.
	// An interactive caller joins item C's flight: promote must place C on
	// the interactive queue.
	interDone := make(chan error, 1)
	go func() {
		_, err := srv.Solve(context.Background(), Request{System: sysC, Weights: balanced()})
		interDone <- err
	}()
	for len(srv.queue) == 0 {
		time.Sleep(time.Millisecond)
	}

	gate <- struct{}{} // finish item A
	if n := <-started; n != 8 {
		t.Fatalf("solve after the promotion has %d devices, want the joined item (8) ahead of bulk item B", n)
	}
	close(gate)
	if err := <-interDone; err != nil {
		t.Fatalf("interactive join failed: %v", err)
	}
	for i, it := range <-batchDone {
		if it.Err != nil {
			t.Errorf("bulk item %d failed: %v", i, it.Err)
		}
	}
}

// TestPromoteClaimProtocol pins the claim protocol that keeps promotion
// safe: however many followers promote, only one interactive copy is
// queued; a rejected enqueue finishes the flight call only if it wins the
// claim; and the stale promoted copy is then discarded without finishing
// the call a second time (which would close a closed channel and crash).
// The server is built without workers so every step is deterministic.
func TestPromoteClaimProtocol(t *testing.T) {
	s := &Server{
		queue:  make(chan *task, 2),
		bulk:   make(chan *task, 2),
		done:   make(chan struct{}),
		flight: newFlightGroup(),
	}
	call, leader := s.flight.join(99)
	if !leader {
		t.Fatal("expected to lead the flight")
	}
	tk := &task{fp: Fingerprint{Exact: 99}, call: call, pri: PriorityBulk}
	call.leaderTask.Store(tk)

	s.promote(call)
	s.promote(call) // second follower: must not queue another copy
	if len(s.queue) != 1 {
		t.Fatalf("interactive queue holds %d copies, want 1", len(s.queue))
	}

	s.failTask(tk, ErrOverloaded, true) // rejected enqueue wins the claim
	select {
	case <-call.done:
	default:
		t.Fatal("rejected task did not finish its call")
	}
	if call.err != ErrOverloaded {
		t.Fatalf("call error = %v, want ErrOverloaded", call.err)
	}
	// The promoted copy is stale now: a worker pop must discard it (a
	// second finish would panic closing the already-closed done channel).
	s.runTask(<-s.queue, core.NewWorkspace())

	// Conversely, once a worker claims the task, a late rejection must
	// leave the call to that worker.
	call2, _ := s.flight.join(100)
	tk2 := &task{fp: Fingerprint{Exact: 100}, call: call2, pri: PriorityBulk}
	call2.leaderTask.Store(tk2)
	tk2.claimed.Store(true) // a worker owns it
	s.failTask(tk2, ErrOverloaded, true)
	select {
	case <-call2.done:
		t.Fatal("failTask finished a call owned by a claimed task")
	default:
	}
}

// TestBucketStats checks the per-topology-bucket hit-rate tracking: two
// topology families served with hits and misses must show up with distinct
// buckets and correct rates in the snapshot and in /metrics.
func TestBucketStats(t *testing.T) {
	a := testSystem(t, 6, 1)
	b := testSystem(t, 9, 2) // different N: different topology bucket
	srv := New(Config{Workers: 2})
	defer srv.Close()

	for i := 0; i < 3; i++ { // 1 miss + 2 hits in bucket A
		if _, err := srv.Solve(context.Background(), Request{System: a, Weights: balanced()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Solve(context.Background(), Request{System: b, Weights: balanced()}); err != nil { // 1 miss in bucket B
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.TrackedBuckets != 2 {
		t.Fatalf("tracked buckets = %d, want 2", st.TrackedBuckets)
	}
	if len(st.Buckets) != 2 {
		t.Fatalf("snapshot buckets = %d, want 2", len(st.Buckets))
	}
	top := st.Buckets[0] // busiest first
	if top.Hits != 2 || top.Misses != 1 || top.ColdSolves != 1 {
		t.Errorf("top bucket = %+v, want 2 hits / 1 miss / 1 cold", top)
	}
	if diff := top.HitRate - 2.0/3.0; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("top bucket hit rate = %g, want 2/3", top.HitRate)
	}
	if st.Buckets[1].Hits != 0 || st.Buckets[1].Misses != 1 {
		t.Errorf("second bucket = %+v, want 0 hits / 1 miss", st.Buckets[1])
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	srv.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"flserve_tracked_buckets 2",
		"flserve_bucket_hits_total{bucket=\"" + top.Bucket + "\"} 2",
		"flserve_bucket_hit_rate{bucket=\"" + top.Bucket + "\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHandoffCarriesCacheEntry verifies Extract/Inject move the cache
// entry: the destination answers the exact replay from its cache with the
// cold solve's objective, and the source solves it cold again.
func TestHandoffCarriesCacheEntry(t *testing.T) {
	base := testSystem(t, 8, 1)
	src := New(Config{Workers: 1})
	defer src.Close()
	dst := New(Config{Workers: 1})
	defer dst.Close()

	req := Request{System: base, Weights: balanced()}
	if _, err := src.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	fp := FingerprintRequest(req)
	m := src.Extract(fp)
	if m.Result == nil {
		t.Fatal("extract carried no cache entry")
	}
	dst.Inject(fp, m)

	resp, err := dst.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceCache {
		t.Fatalf("destination replay source %q, want cache", resp.Source)
	}
	coretest.RequireCold(t, base, balanced(), resp.Result.Objective)
	if again, err := src.Solve(context.Background(), req); err != nil || again.Source != SourceCold {
		t.Fatalf("source replay after extract: source %q, err %v; want cold", again.Source, err)
	}
}
