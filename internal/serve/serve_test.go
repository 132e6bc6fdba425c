package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
)

func balanced() fl.Weights { return fl.Weights{W1: 0.5, W2: 0.5} }

// driftGains returns a copy of s with every gain multiplied by
// exp(sigma * z_i): a new exact fingerprint with the same topology hash.
func driftGains(s *fl.System, sigma float64, rng *rand.Rand) *fl.System {
	out := *s
	out.Devices = append([]fl.Device(nil), s.Devices...)
	for i := range out.Devices {
		out.Devices[i].Gain *= math.Exp(sigma * rng.NormFloat64())
	}
	return &out
}

func TestSolveColdThenCached(t *testing.T) {
	s := testSystem(t, 10, 1)
	srv := New(Config{Workers: 2})
	defer srv.Close()

	first, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != SourceCold {
		t.Fatalf("first solve source = %q, want cold", first.Source)
	}
	if err := s.Validate(first.Result.Allocation, 1e-6); err != nil {
		t.Fatalf("cold allocation infeasible: %v", err)
	}

	second, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != SourceCache {
		t.Fatalf("repeat solve source = %q, want cache", second.Source)
	}
	if second.Result.Objective != first.Result.Objective {
		t.Fatalf("cached objective %v != solved objective %v", second.Result.Objective, first.Result.Objective)
	}
	st := srv.Stats()
	if st.Hits != 1 || st.ColdSolves != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 cold solve", st)
	}
	// Cache entries keep the totals, not the per-device metric slices.
	if second.Result.Metrics.TotalEnergy != first.Result.Metrics.TotalEnergy ||
		second.Result.Metrics.TotalTime != first.Result.Metrics.TotalTime {
		t.Fatalf("cached totals %+v != solved totals %+v", second.Result.Metrics, first.Result.Metrics)
	}
	if m := second.Result.Metrics; m.Rates != nil || m.UploadTimes != nil || m.CompTimes != nil {
		t.Fatalf("cached result carries per-device metrics: %+v", m)
	}
}

// TestSessionPrivateSolveNotCached pins the Request.Fingerprint rule: a
// request carrying its own fingerprint may be answered from the cache, but
// its solve is never stored, through Solve and SolveBatch alike.
func TestSessionPrivateSolveNotCached(t *testing.T) {
	s := testSystem(t, 8, 2)
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ctx := context.Background()
	fp := FingerprintRequest(Request{System: s, Weights: balanced()})
	private := Request{System: s, Weights: balanced(), Fingerprint: &fp}

	for k := 0; k < 2; k++ {
		resp, err := srv.Solve(ctx, private)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != SourceCold || resp.Fingerprint != fp {
			t.Fatalf("private solve %d: source %q fingerprint %+v, want cold under %+v", k, resp.Source, resp.Fingerprint, fp)
		}
	}
	if it := srv.SolveBatch(ctx, []Request{private}, PriorityInteractive)[0]; it.Err != nil || it.Response.Source != SourceCold {
		t.Fatalf("private batch item: %+v", it)
	}
	if n := srv.Stats().CacheEntries; n != 0 {
		t.Fatalf("session-private solves left %d cache entries", n)
	}

	// An ordinary request stores its answer, and the private one reads it.
	if resp, err := srv.Solve(ctx, Request{System: s, Weights: balanced()}); err != nil || resp.Source != SourceCold {
		t.Fatalf("ordinary solve: %q %v", resp.Source, err)
	}
	if resp, err := srv.Solve(ctx, private); err != nil || resp.Source != SourceCache {
		t.Fatalf("private request after an ordinary solve: %q %v, want cache", resp.Source, err)
	}
}

func TestSingleflightDedup(t *testing.T) {
	s := testSystem(t, 6, 1)
	var calls atomic.Int64
	gate := make(chan struct{})
	srv := New(Config{
		Workers: 4,
		Solver: func(sys *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
			calls.Add(1)
			<-gate
			return core.Optimize(sys, w, o)
		},
	})
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	results := make([]Response, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = srv.Solve(context.Background(), Request{System: s, Weights: balanced()})
		}(i)
	}
	// Release the solver only after every follower has joined the flight.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Deduped < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never joined: stats %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i].Result.Objective != results[0].Result.Objective {
			t.Fatalf("client %d objective %v differs from leader %v", i, results[i].Result.Objective, results[0].Result.Objective)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("solver ran %d times for %d identical concurrent requests, want 1", got, clients)
	}
	// Every deduplicated caller owns its result: mutating one must not
	// bleed into another.
	results[0].Result.Allocation.Power[0] = -1
	if results[1].Result.Allocation.Power[0] == -1 {
		t.Fatal("deduplicated responses share allocation slices")
	}
}

// TestCachedAtLeastTenTimesFasterThanCold is the serving-path speedup
// guarantee: answering from the cache must beat re-solving by >= 10x (in
// practice about 30x at N=15). The hit cost is the best of several
// batches, so a scheduler preemption or GC pause landing inside one batch
// cannot pass for the cost of a hit.
func TestCachedAtLeastTenTimesFasterThanCold(t *testing.T) {
	s := testSystem(t, 15, 1)
	srv := New(Config{Workers: 1})
	defer srv.Close()

	began := time.Now()
	first, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()})
	coldWall := time.Since(began)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != SourceCold {
		t.Fatalf("first source = %q", first.Source)
	}

	const batches, hits = 5, 100
	perHit := time.Duration(math.MaxInt64)
	for b := 0; b < batches; b++ {
		began = time.Now()
		for i := 0; i < hits; i++ {
			resp, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Source != SourceCache {
				t.Fatalf("hit %d source = %q", i, resp.Source)
			}
		}
		perHit = min(perHit, time.Since(began)/hits)
	}
	if perHit*10 > coldWall {
		t.Fatalf("cache hit %v not >= 10x faster than cold solve %v", perHit, coldWall)
	}
}

func TestQueueOverloadSheds(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	srv := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Solver: func(sys *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
			entered <- struct{}{}
			<-gate
			return core.Result{Allocation: sys.MaxResourceAllocation(), Converged: true}, nil
		},
	})
	defer srv.Close()

	// Distinct weights give distinct fingerprints, so no dedup interferes.
	weightAt := func(i int) fl.Weights {
		w1 := 0.10 + 0.08*float64(i)
		return fl.Weights{W1: w1, W2: 1 - w1}
	}
	s := testSystem(t, 4, 1)
	// Occupy the single worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Solve(context.Background(), Request{System: s, Weights: weightAt(0)}); err != nil {
			t.Errorf("occupier: %v", err)
		}
	}()
	<-entered

	// With the worker blocked and a queue of one, nine more distinct
	// requests can place at most one; the other eight must shed
	// immediately. The queued request cannot finish until the gate opens,
	// so wait for the rejections via the counters, then release.
	const extra = 9
	errsCh := make(chan error, extra)
	for i := 1; i <= extra; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := srv.Solve(context.Background(), Request{System: s, Weights: weightAt(i)})
			errsCh <- err
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Rejected < extra-1 {
		if time.Now().After(deadline) {
			t.Fatalf("rejections never arrived: stats %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	var overloaded int
	for i := 0; i < extra; i++ {
		if errors.Is(<-errsCh, ErrOverloaded) {
			overloaded++
		}
	}
	if overloaded != extra-1 {
		t.Fatalf("%d/%d requests shed, want %d", overloaded, extra, extra-1)
	}
	if st := srv.Stats(); st.Rejected != int64(overloaded) {
		t.Fatalf("stats.Rejected = %d, want %d", st.Rejected, overloaded)
	}
}

// TestCacheChurnParallel hammers a deliberately tiny cache from many
// goroutines; run under -race it checks the sharded LRU and counters for
// data races, and that the size bound holds under churn.
func TestCacheChurnParallel(t *testing.T) {
	s := testSystem(t, 4, 1)
	srv := New(Config{
		Workers:      4,
		QueueDepth:   256,
		CacheEntries: cacheShards, // one per shard
		Solver: func(sys *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
			return core.Result{Allocation: sys.MaxResourceAllocation(), Objective: w.W1, Converged: true}, nil
		},
	})
	defer srv.Close()

	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				w1 := 0.01 + 0.98*float64(rng.Intn(64))/64
				_, err := srv.Solve(context.Background(), Request{
					System:  s,
					Weights: fl.Weights{W1: w1, W2: 1 - w1},
				})
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := srv.cache.Len(); n > cacheShards {
		t.Fatalf("cache grew to %d entries, bound is %d", n, cacheShards)
	}
	st := srv.Stats()
	if st.Requests != goroutines*perG {
		t.Fatalf("requests = %d, want %d", st.Requests, goroutines*perG)
	}
}

func TestServeLifecycle(t *testing.T) {
	srv := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v, want context.Canceled", err)
	}
	s := testSystem(t, 4, 1)
	if _, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Solve after Close returned %v, want ErrClosed", err)
	}
}

func TestSolveRejectsNilSystem(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	if _, err := srv.Solve(context.Background(), Request{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nil system returned %v, want ErrBadRequest", err)
	}
}

// TestDeadlineHitMeetsRequestDeadline posts, after each deadline-mode
// solve, copies of the instance with every gain drifted by about 0.004 dB,
// plus one identical repost. The deadline optimum is
// tight (every device finishes on the deadline), so an answer solved for a
// neighbouring instance would overrun it wherever the request's gain sits
// lower. Every answer, cached or solved, must meet the request's own
// deadline, and the identical repost must still hit the cache.
func TestDeadlineHitMeetsRequestDeadline(t *testing.T) {
	const total = 300.0
	srv := New(Config{Workers: 2})
	defer srv.Close()
	opts := core.Options{Mode: core.ModeDeadline, TotalDeadline: total}
	for seed := int64(1); seed <= 3; seed++ {
		s := testSystem(t, 20, seed)
		round := total / s.GlobalRounds
		rng := rand.New(rand.NewSource(seed))
		reqs := []*fl.System{s, s}
		for k := 0; k < 6; k++ {
			reqs = append(reqs, driftGains(s, 0.001, rng))
		}
		for k, sys := range reqs {
			resp, err := srv.Solve(context.Background(), Request{System: sys, Weights: fl.Weights{W1: 1}, Options: opts})
			if err != nil {
				t.Fatalf("seed %d request %d: %v", seed, k, err)
			}
			if k == 1 && resp.Source != SourceCache {
				t.Errorf("seed %d: identical repost answered %q, want cache", seed, resp.Source)
			}
			if err := sys.ValidateDeadline(resp.Result.Allocation, round, 1e-6); err != nil {
				t.Errorf("seed %d request %d (%s): %v", seed, k, resp.Source, err)
			}
		}
	}
}
