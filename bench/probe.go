package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// opHeader carries an op's index to the traced run's middleware, which
// files the server-side timings under it.
const opHeader = "X-Bench-Op"

// opKey is the context key under which the middleware passes the op index
// down to the stream backend probe.
type opKey struct{}

// probe holds the traced run's timings, taken at the public seams around
// the serving stack: a middleware around the composed handler, a wrapper
// around the serving solver, and a wrapper around the stream backend.
type probe struct {
	times atomic.Pointer[opTimes] // nil until the window's ops are known

	mu     sync.Mutex
	solves []solveSample
}

// opTimes holds the server-side timings of one window's ops, by op index.
type opTimes struct {
	server  []atomic.Int64 // whole composed handler, ns
	backend []atomic.Int64 // stream backend calls, ns
}

// solveSample is one serving-solver call, with the split the server's own
// core.SolveTrace recorded for it.
type solveSample struct {
	wall, sp1, sp2 time.Duration
	newton, outer  int
}

// track starts filing timings for a window of n ops.
func (p *probe) track(n int) *opTimes {
	t := &opTimes{server: make([]atomic.Int64, n), backend: make([]atomic.Int64, n)}
	p.times.Store(t)
	return t
}

// middleware times the whole composed handler for requests carrying an op
// index.
func (p *probe) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := p.times.Load()
		id, err := strconv.Atoi(r.Header.Get(opHeader))
		if t == nil || err != nil || id < 0 || id >= len(t.server) {
			next.ServeHTTP(w, r)
			return
		}
		began := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), opKey{}, id)))
		t.server[id].Store(int64(time.Since(began)))
	})
}

// wrapSolver times every serving-solver call.
func (p *probe) wrapSolver(next solveFunc) solveFunc {
	return func(s *repro.System, w repro.Weights, o repro.Options) (repro.Result, error) {
		began := time.Now()
		res, err := next(s, w, o)
		smp := solveSample{wall: time.Since(began)}
		if o.Trace != nil { // the server hands every solve a fresh trace
			smp.sp1, smp.sp2 = o.Trace.SP1Time, o.Trace.SP2Time
			smp.newton, smp.outer = o.Trace.NewtonIters, o.Trace.OuterIters
		}
		p.mu.Lock()
		p.solves = append(p.solves, smp)
		p.mu.Unlock()
		return res, err
	}
}

// solvesSince returns the solver calls recorded after the first n.
func (p *probe) solvesSince(n int) []solveSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]solveSample(nil), p.solves[n:]...)
}

func (p *probe) solveCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.solves)
}

// probedBackend times the stream layer's calls into its backend.
type probedBackend struct {
	repro.StreamBackend
	p *probe
}

func (b probedBackend) Solve(ctx context.Context, deviceID string, req repro.ServeRequest) (repro.ServeResponse, int, error) {
	began := time.Now()
	resp, cell, err := b.StreamBackend.Solve(ctx, deviceID, req)
	if id, ok := ctx.Value(opKey{}).(int); ok {
		b.p.times.Load().backend[id].Add(int64(time.Since(began)))
	}
	return resp, cell, err
}
