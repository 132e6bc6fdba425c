package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
)

// BatchItem is the outcome of one instance in a SolveBatch call: exactly
// one of Response/Err is meaningful (Err nil means Response is valid). One
// bad item never fails its batch.
type BatchItem struct {
	Response Response
	Err      error
}

// SolveBatch answers many allocation requests in one call, amortizing the
// per-request pipeline over the batch: every instance is fingerprinted
// up front, exact matches are answered from the cache without touching the
// worker pool, identical misses (within the batch or against in-flight
// solves) collapse onto one solve, and the remainder is dispatched at the
// given priority — PriorityBulk replays queue behind live interactive
// traffic, PriorityInteractive competes with it. Items are returned in
// request order. ctx bounds only this caller's wait, exactly as in Solve.
func (s *Server) SolveBatch(ctx context.Context, reqs []Request, pri Priority) []BatchItem {
	s.stats.batchReqs.Add(1)
	s.stats.batchItems.Add(int64(len(reqs)))
	out := make([]BatchItem, len(reqs))

	// Phase 1: fingerprint, answer from cache, dispatch the misses. The
	// flight calls double as the batch's join handles: identical instances
	// share one call, and a leader enqueues exactly once.
	// One batch request carries one trace: spans from every item land in
	// it, which is the right granularity for a single HTTP call.
	tr := obs.FromContext(ctx)
	calls := make([]*flightCall, len(reqs))
	anySolve := false
	for i, req := range reqs {
		s.stats.requests.Add(1)
		itemBegan := time.Now()
		if req.System == nil {
			s.stats.errors.Add(1)
			out[i].Err = fmt.Errorf("nil system: %w", ErrBadRequest)
			continue
		}
		solve, err := s.solveFunc(req)
		if err != nil {
			s.stats.errors.Add(1)
			out[i].Err = err
			continue
		}
		fp := req.fingerprint()
		if !s.cfg.DisableCache {
			if res, ok := s.cache.Get(fp.Exact); ok {
				s.stats.hits.Add(1)
				s.stats.bucketEvent(fp.Topo, bucketHit)
				s.stats.recordHitLatency(time.Since(itemBegan))
				out[i].Response = Response{Result: res, Source: SourceCache, Solver: req.Solver.normalize(), Fingerprint: fp, TraceID: tr.ID()}
				continue
			}
			s.stats.misses.Add(1)
			s.stats.bucketEvent(fp.Topo, bucketMiss)
		}
		call, leader := s.flight.join(fp.Exact)
		if leader {
			s.enqueue(&task{req: req, fp: fp, solve: solve, call: call, tr: tr}, pri)
		} else {
			s.stats.deduped.Add(1)
			if pri == PriorityInteractive {
				s.promote(call)
			}
		}
		calls[i] = call
		anySolve = true
	}
	if !anySolve {
		return out
	}

	// Phase 2: wait. The default deadline only starts once a solve has to
	// be awaited, so an all-cached batch never pays for the timer.
	if s.cfg.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
			defer cancel()
		}
	}
	for i, call := range calls {
		if call == nil {
			continue
		}
		select {
		case <-call.done:
		case <-ctx.Done():
			out[i].Err = ctx.Err()
			continue
		case <-s.done:
			// Close racing with completion: prefer a result that is already
			// there over ErrClosed.
			select {
			case <-call.done:
			default:
				out[i].Err = ErrClosed
				continue
			}
		}
		if call.err != nil {
			out[i].Err = call.err
			continue
		}
		// Each item gets its own copy: the call's Response is shared by
		// every waiter, and Result is documented as mutable.
		resp := call.res
		resp.Result = cloneResult(resp.Result)
		out[i].Response = resp
	}
	return out
}
