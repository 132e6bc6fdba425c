package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
)

// ErrOverloaded is returned when the request queue is full; callers should
// shed load or retry with backoff.
var ErrOverloaded = errors.New("serve: overloaded, queue full")

// ErrClosed is returned for requests arriving after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrBadRequest flags malformed requests (nil system, invalid parameters).
var ErrBadRequest = errors.New("serve: bad request")

// Config parameterizes a Server. The zero value is usable: every field has
// a sensible default.
type Config struct {
	// Workers is the solver pool size. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of requests waiting for a worker;
	// arrivals beyond it are rejected with ErrOverloaded. Default 4*Workers.
	QueueDepth int
	// CacheEntries bounds the solution cache. Default 4096.
	CacheEntries int
	// CacheTTL expires cached solutions. Zero selects the 10-minute
	// default; negative disables expiry.
	CacheTTL time.Duration
	// DefaultTimeout bounds a request that arrives without a context
	// deadline. Default 30 seconds; negative disables the default.
	DefaultTimeout time.Duration
	// Quantization is ignored: fingerprints are exact; removed together
	// with bench/'s warm vocabulary.
	Quantization Quantization
	// DisableCache turns off the exact-fingerprint solution cache.
	DisableCache bool
	// BulkQueueDepth bounds the low-priority queue fed by batch requests;
	// arrivals beyond it are rejected with ErrOverloaded. Default
	// 4*QueueDepth.
	BulkQueueDepth int
	// Solver overrides the solve function (tests, alternative algorithms).
	// Default core.Optimize.
	Solver func(*fl.System, fl.Weights, core.Options) (core.Result, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 10 * time.Minute
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.BulkQueueDepth <= 0 {
		c.BulkQueueDepth = 4 * c.QueueDepth
	}
	if c.Solver == nil {
		c.Solver = core.Optimize
	}
	return c
}

// Quantization is ignored: fingerprints are exact; removed together with
// bench/'s warm vocabulary. It survives only so that Config.Quantization
// and the repro facade's ServeQuantization still compile.
type Quantization struct {
	// GainResolutionDB is ignored.
	GainResolutionDB float64
}

// Request is one allocation instance to solve.
type Request struct {
	// System is the FL deployment; it is read, never mutated.
	System *fl.System
	// Weights is the objective weight pair.
	Weights fl.Weights
	// Options configures the solver.
	Options core.Options
	// Solver selects the answering algorithm (default SolverAlgorithm2).
	// The choice is part of the fingerprint, so the same instance under
	// different solvers never shares a cache entry.
	Solver SolverName
	// Fingerprint, when non-nil, is used instead of fingerprinting the
	// request from scratch. Streaming delta sessions precompute it
	// incrementally (FingerprintGains) because only the gains moved; it
	// must equal FingerprintRequest of exactly this request, or cache
	// entries would cross-contaminate. Left nil by ordinary callers.
	//
	// A request that carries its own Fingerprint is session-private: it
	// may be answered from the cache, but its solve is never stored there.
	// A delta session's instance belongs to that session alone, so an
	// entry for it would only be read again by an identical re-POST.
	Fingerprint *Fingerprint
}

// fingerprint resolves the request's fingerprint: the caller-precomputed
// one when present, a fresh FingerprintRequest otherwise.
func (req Request) fingerprint() Fingerprint {
	if req.Fingerprint != nil {
		return *req.Fingerprint
	}
	return FingerprintRequest(req)
}

// Source records how a response was produced.
type Source string

const (
	// SourceCache means the exact fingerprint hit the solution cache.
	SourceCache Source = "cache"
	// SourceCold means the solver ran: every cache miss solves from the
	// default start.
	SourceCold Source = "cold"
)

// Response is the outcome of one request.
type Response struct {
	// Result is the solver output (a private copy; callers may mutate it).
	// A cache hit carries the totals of Result.Metrics but not its
	// per-device slices (Rates, UploadTimes, CompTimes), which the cache
	// does not keep; System.Evaluate(Result.Allocation) derives them.
	// Fingerprints are exact, so a hit is the request's own instance.
	Result core.Result
	// Source tells whether the result came from the cache or a solve.
	Source Source
	// Solver is the algorithm that produced the result (normalized; never
	// empty).
	Solver SolverName
	// Fingerprint is the instance fingerprint used for caching.
	Fingerprint Fingerprint
	// SolveTime is the wall time of the solve (zero on cache hits).
	SolveTime time.Duration
	// TraceID identifies the lifecycle trace this solve was recorded
	// under ("" when the request was not traced); the same ID is echoed
	// in the X-Trace-Id response header and retrievable via
	// GET /debug/traces.
	TraceID string
}

// Clone returns a response whose Result is privately owned by the caller;
// layers that fan one response out to several callers (a coalesced stream
// re-solve) clone per recipient, since Result is documented mutable.
func (r Response) Clone() Response {
	r.Result = cloneResult(r.Result)
	return r
}

// Server is a concurrent allocation service over the Algorithm 2 solver: a
// fixed worker pool drains a bounded queue, identical in-flight instances
// are deduplicated, and exact fingerprint matches are answered from an LRU
// cache. Every cache miss solves cold.
type Server struct {
	cfg    Config
	cache  *Cache
	flight *flightGroup
	stats  Stats

	queue chan *task
	bulk  chan *task
	done  chan struct{}
	wg    sync.WaitGroup
	close sync.Once
}

type task struct {
	req   Request
	fp    Fingerprint
	solve func(*fl.System, fl.Weights, core.Options) (core.Result, error)
	call  *flightCall
	// tr is the leader caller's lifecycle trace (nil when untraced); the
	// worker records queue-wait and solver-phase spans against it. enq is
	// the enqueue instant the queue-wait span starts from.
	tr  *obs.Trace
	enq time.Time
	// pri is the queue the task was enqueued on; promote reads it to
	// decide whether an interactive follower should re-queue the task.
	pri Priority
	// claimed guards against double completion when promotion places the
	// same task on both queues: the first dequeue claims it and the other
	// pop discards it, and a failed enqueue may finish the flight call
	// with an error only if it wins the claim (a promoted copy may
	// already be running).
	claimed atomic.Bool
	// promoted ensures at most one interactive-queue copy exists however
	// many interactive followers join the flight.
	promoted atomic.Bool
}

// Priority ranks a request for worker dispatch. Workers always prefer
// interactive work; bulk tasks (batch replays) run only when no interactive
// request is waiting, so a batch cannot starve live traffic.
type Priority int

const (
	// PriorityInteractive is the default for single solves.
	PriorityInteractive Priority = iota
	// PriorityBulk marks batch replays that may wait behind live traffic.
	PriorityBulk
)

// New builds a server and starts its worker pool. Call Close (or cancel a
// Serve context) to stop it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  NewCache(cfg.CacheEntries, cfg.CacheTTL),
		flight: newFlightGroup(),
		queue:  make(chan *task, cfg.QueueDepth),
		bulk:   make(chan *task, cfg.BulkQueueDepth),
		done:   make(chan struct{}),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Serve blocks until ctx is cancelled, then shuts the worker pool down and
// returns the cancellation cause. It is a convenience for binaries; Solve
// works as soon as New returns.
func (s *Server) Serve(ctx context.Context) error {
	select {
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	case <-s.done:
		return ErrClosed
	}
}

// Close stops the worker pool. In-flight solves finish; queued and future
// requests that need a solve fail with ErrClosed, while exact-fingerprint
// cache hits are still served (useful when draining). Safe to call more
// than once.
func (s *Server) Close() {
	s.close.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Stats returns a snapshot of the server counters, cache occupancy
// included.
func (s *Server) Stats() Snapshot {
	st := s.stats.Snapshot()
	st.CacheEntries = s.cache.Len()
	st.QueueLen = len(s.queue)
	st.BulkQueueLen = len(s.bulk)
	return st
}

// SolveLatencies returns a copy of the recent solve-latency window
// (unsorted, cache hits excluded). Cluster routers merge the windows of
// their cells to compute cluster-wide quantiles.
func (s *Server) SolveLatencies() []time.Duration { return s.stats.latencies() }

// CacheHitLatencies returns a copy of the recent cache-hit latency window
// (unsorted); the hit path is tracked separately so solve quantiles stay
// honest. Cluster routers merge these exactly like SolveLatencies.
func (s *Server) CacheHitLatencies() []time.Duration { return s.stats.hitLatencies() }

// QueueWaitLatencies returns a copy of the recent enqueue→dequeue wait
// window (unsorted). Cluster routers merge these exactly like
// SolveLatencies; the health layer windows them per cell.
func (s *Server) QueueWaitLatencies() []time.Duration { return s.stats.queueWaitLatencies() }

// Migration is the cacheable state one fingerprint identifies: its
// exact-match solution-cache entry, nil if absent.
type Migration struct {
	Result *core.Result
}

// Extract removes and returns the solution-cache entry identified by fp.
// It is the source half of a cross-cell device handoff: after Extract the
// server answers that exact fingerprint cold again.
func (s *Server) Extract(fp Fingerprint) Migration {
	var m Migration
	if res, ok := s.cache.Take(fp.Exact); ok {
		m.Result = &res
	}
	return m
}

// Inject inserts a migrated cache entry under fp, the destination half of
// a handoff: the next identical request is a cache hit. A server with its
// cache disabled drops it.
func (s *Server) Inject(fp Fingerprint, m Migration) {
	if m.Result != nil && !s.cfg.DisableCache {
		s.cache.Put(fp.Exact, *m.Result)
	}
}

// Solve answers one allocation request: from the cache on an exact
// fingerprint hit, by joining an identical in-flight solve, or by queueing
// a cold solve on the worker pool. ctx governs only
// this caller's wait: a solve, once enqueued, always runs to completion
// and lands in the cache (unless the request is session-private, see
// Request.Fingerprint), so a timed-out caller neither loses the work nor
// fails the other callers deduplicated onto it.
func (s *Server) Solve(ctx context.Context, req Request) (Response, error) {
	s.stats.requests.Add(1)
	if req.System == nil {
		s.stats.errors.Add(1)
		return Response{}, fmt.Errorf("nil system: %w", ErrBadRequest)
	}
	solve, err := s.solveFunc(req)
	if err != nil {
		s.stats.errors.Add(1)
		return Response{}, err
	}
	tr := obs.FromContext(ctx)
	began := time.Now()
	fp := req.fingerprint()
	if tr != nil {
		tr.Record(obs.PhaseFingerprint, began)
	}
	if !s.cfg.DisableCache {
		var lookBegan time.Time
		if tr != nil {
			lookBegan = time.Now()
		}
		if res, ok := s.cache.Get(fp.Exact); ok {
			s.stats.hits.Add(1)
			s.stats.bucketEvent(fp.Topo, bucketHit)
			s.stats.recordHitLatency(time.Since(began))
			if tr != nil {
				tr.RecordAttr(obs.PhaseCacheLookup, lookBegan, obs.Attr{Cell: obs.CellNone, Detail: "hit"})
			}
			return Response{Result: res, Source: SourceCache, Solver: req.Solver.normalize(), Fingerprint: fp, TraceID: tr.ID()}, nil
		}
		s.stats.misses.Add(1)
		s.stats.bucketEvent(fp.Topo, bucketMiss)
		if tr != nil {
			tr.RecordAttr(obs.PhaseCacheLookup, lookBegan, obs.Attr{Cell: obs.CellNone, Detail: "miss"})
		}
	}

	// The default deadline only matters once a solve has to be awaited, so
	// the cache-hit fast path above never pays for the timer.
	if s.cfg.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
			defer cancel()
		}
	}

	call, leader := s.flight.join(fp.Exact)
	var waitBegan time.Time
	if leader {
		s.enqueue(&task{req: req, fp: fp, solve: solve, call: call, tr: tr}, PriorityInteractive)
	} else {
		s.stats.deduped.Add(1)
		if tr != nil {
			waitBegan = time.Now()
		}
		// Joining a batch replay's in-flight solve must not demote this
		// caller to bulk priority.
		s.promote(call)
	}
	finished := func() (Response, error) {
		if !waitBegan.IsZero() {
			tr.RecordAttr(obs.PhaseDedupWait, waitBegan, obs.Attr{Cell: obs.CellNone, Detail: "joined in-flight solve"})
		}
		if call.err != nil {
			return Response{}, call.err
		}
		// Each waiter gets its own copy: the call's Response is shared by
		// every deduplicated caller, and Result is documented as mutable.
		resp := call.res
		resp.Result = cloneResult(resp.Result)
		if tr != nil {
			// Per-caller attribution: followers stamp their own trace over
			// the leader's shared response copy.
			resp.TraceID = tr.ID()
		}
		return resp, nil
	}
	select {
	case <-call.done:
		return finished()
	case <-ctx.Done():
		return Response{}, ctx.Err()
	case <-s.done:
		// Close racing with completion: prefer a result that is already
		// there over ErrClosed (select picks ready cases at random).
		select {
		case <-call.done:
			return finished()
		default:
			return Response{}, ErrClosed
		}
	}
}

// enqueue places the task on the queue matching its priority; the worker
// finishes the flight call after solving. When the enqueue itself fails
// (closed, queue full) the leader finishes the call with the error so every
// waiter wakes.
func (s *Server) enqueue(t *task, pri Priority) {
	t.pri = pri
	// Always stamped (not just when traced): the queue-wait stats window
	// is the health layer's scaling signal and must see every task.
	t.enq = time.Now()
	t.call.leaderTask.Store(t)
	select {
	case <-s.done:
		s.failTask(t, ErrClosed, false)
		return
	default:
	}
	q := s.queue
	if pri == PriorityBulk {
		q = s.bulk
	}
	select {
	case q <- t:
	case <-s.done:
		s.failTask(t, ErrClosed, false)
	default:
		s.failTask(t, ErrOverloaded, true)
	}
}

// failTask finishes a task's flight call with err — but only after winning
// the claim: a promoted duplicate may already be running (or queued) on the
// interactive queue, and finishing here too would complete the call twice
// (close of a closed channel). Losing the claim means a worker owns the
// task and will deliver the real outcome.
func (s *Server) failTask(t *task, err error, shed bool) {
	if !t.claimed.CompareAndSwap(false, true) {
		return
	}
	if shed {
		s.stats.rejected.Add(1)
	}
	s.flight.finish(t.fp.Exact, t.call, Response{}, err)
}

// promote re-queues a bulk-queued leader task onto the interactive queue
// when an interactive caller deduplicates onto its flight: without it, a
// live request colliding with a batch replay would wait at bulk priority
// behind all interactive traffic. Best-effort and race-tolerant: the task
// stays on the bulk queue too, whichever dequeue claims it first runs it,
// and a full interactive queue simply leaves the bulk copy in charge.
func (s *Server) promote(call *flightCall) {
	t := call.leaderTask.Load()
	if t == nil || t.pri != PriorityBulk || t.claimed.Load() {
		return
	}
	if !t.promoted.CompareAndSwap(false, true) {
		return // another follower already queued the interactive copy
	}
	select {
	case s.queue <- t:
	default:
	}
}

// worker drains the queues, preferring interactive work: a bulk task is
// picked up only when no interactive task is waiting at that moment. Each
// worker owns a solver workspace, reused across every solve it runs, so the
// steady-state request path performs no solver allocations.
func (s *Server) worker() {
	defer s.wg.Done()
	ws := core.NewWorkspace()
	for {
		// Fast path: interactive work (or shutdown) first.
		select {
		case t := <-s.queue:
			s.runTask(t, ws)
			continue
		case <-s.done:
			return
		default:
		}
		select {
		case t := <-s.queue:
			s.runTask(t, ws)
		case t := <-s.bulk:
			s.runTask(t, ws)
		case <-s.done:
			return
		}
	}
}

// runTask claims and executes one dequeued task. A promoted task sits on
// both queues; the claim makes the second pop a no-op.
func (s *Server) runTask(t *task, ws *core.Workspace) {
	if !t.claimed.CompareAndSwap(false, true) {
		return
	}
	s.stats.recordQueueWait(time.Since(t.enq))
	if t.tr != nil {
		queue := "interactive"
		if t.pri == PriorityBulk {
			queue = "bulk"
		}
		t.tr.RecordAttr(obs.PhaseQueueWait, t.enq, obs.Attr{Cell: obs.CellNone, Detail: queue})
	}
	resp, err := s.process(t, ws)
	s.flight.finish(t.fp.Exact, t.call, resp, err)
}

// process runs one cold solve on the worker's workspace.
func (s *Server) process(t *task, ws *core.Workspace) (Response, error) {
	req := t.req
	if req.Options.Work == nil {
		req.Options.Work = ws
	}
	// The solve trace is always collected — the convergence observatory
	// wants every solve's iteration counts, traced request or not — at the
	// cost of a few nil-check-guarded writes inside the solver.
	var st core.SolveTrace
	stp := req.Options.Trace
	if stp == nil {
		stp = &st
		req.Options.Trace = stp
	}

	began := time.Now()
	res, err := t.solve(req.System, req.Weights, req.Options)
	elapsed := time.Since(began)
	if err != nil {
		if t.tr != nil {
			t.tr.RecordDur(obs.PhaseSolve, began, elapsed, obs.Attr{Cell: obs.CellNone, Detail: "error: " + err.Error()})
		}
		s.stats.errors.Add(1)
		return Response{}, err
	}
	if t.tr != nil {
		t.tr.RecordDur(obs.PhaseSolve, began, elapsed, obs.Attr{Cell: obs.CellNone, Detail: string(SourceCold)})
		// SP1/SP2 sub-spans are drawn from the solver's own clocks; they
		// share the solve's start offset since only the split matters.
		if stp.SP1Time > 0 {
			t.tr.RecordDur(obs.PhaseSP1, began, stp.SP1Time, obs.Attr{Cell: obs.CellNone, Value: int64(stp.OuterIters)})
		}
		if stp.SP2Time > 0 {
			t.tr.RecordDur(obs.PhaseSP2, began, stp.SP2Time, obs.Attr{Cell: obs.CellNone})
		}
	}
	s.stats.conv.recordSolve(string(SourceCold), *stp)
	s.stats.recordLatency(elapsed)
	s.stats.coldSolves.Add(1)
	s.stats.bucketEvent(t.fp.Topo, bucketCold)
	if !s.cfg.DisableCache && req.Fingerprint == nil {
		s.cache.Put(t.fp.Exact, res)
	}
	// Not cloned here: every waiter in Solve copies Result for itself.
	return Response{
		Result:      res,
		Source:      SourceCold,
		Solver:      req.Solver.normalize(),
		Fingerprint: t.fp,
		SolveTime:   elapsed,
		TraceID:     t.tr.ID(),
	}, nil
}
