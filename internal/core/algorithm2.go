package core

import (
	"fmt"
	"time"

	"repro/internal/fl"
)

// Optimize runs the paper's resource allocation (Algorithm 2): starting from
// a feasible allocation, it alternates Subproblem 1 (frequencies and round
// deadline, given upload times) and Subproblem 2 (powers and bandwidths,
// given minimum rates from the deadline) until the allocation stops moving
// or MaxOuter iterations. It is the served solver: Subproblem 2 is always
// solved by the direct reduction (SolveSubproblem2Direct). OptimizePaper
// runs the paper's Algorithm 1 in its place.
//
// The weighted objective is non-increasing across both half-steps: SP1 is
// solved exactly for (f, T) with transmission terms fixed, and SP2 minimizes
// transmission energy while preserving every rate floor, hence the deadline.
//
// The hot loop is allocation-free: scratch memory comes from Options.Work,
// or from a shared pool when the caller brings none. The alternation
// starts from p = PMax, f = FMax, B = B/N (System.MaxResourceAllocation).
func Optimize(s *fl.System, w fl.Weights, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.check(s, w); err != nil {
		return Result{}, err
	}

	if opts.Mode == ModeWeighted && opts.JointWeighted && w.W1 > 0 && w.W2 > 0 {
		jw := opts
		jw.JointWeighted = false // break the dispatch cycle
		return SolveWeightedJoint(s, w, jw)
	}

	if opts.Mode == ModeWeighted && w.W1 == 0 {
		return minTimeCorner(s, w)
	}

	if opts.Mode == ModeDeadline {
		roundDeadline := opts.TotalDeadline / s.GlobalRounds
		// Screen feasibility once: the deadline is reachable iff the band
		// that lets every device finish at full frequency and full power
		// fits. That is the test SolveMinTime bisects on, made once at the
		// requested deadline with 1e-9 relative slack. For tracing,
		// the screen plays SP1's role (it fixes the deadline side) and the
		// joint solve below plays SP2's.
		var t0 time.Time
		if opts.Trace != nil {
			t0 = time.Now()
		}
		need := bandNeeded(s, roundDeadline*(1+1e-9), nil)
		if opts.Trace != nil {
			opts.Trace.SP1Time += time.Since(t0)
		}
		if !(need <= s.Bandwidth) {
			return Result{}, fmt.Errorf("core: deadline %gs/round below the physical minimum (needs %g Hz > %g Hz at full power): %w",
				roundDeadline, need, s.Bandwidth, ErrInfeasible)
		}
		// Fixed-deadline energy minimization is solved in one shot by dual
		// decomposition on the bandwidth budget: alternating f/(p,B) updates
		// would ratchet each device's rate floor at its incoming upload
		// time, conceding the compute/communicate tradeoff (see
		// solveDeadlineJoint).
		if opts.Trace != nil {
			t0 = time.Now()
		}
		joint, bound, _, err := solveDeadlineJoint(s, roundDeadline, opts.Trace)
		if opts.Trace != nil {
			opts.Trace.SP2Time += time.Since(t0)
			opts.Trace.OuterIters++
		}
		if err != nil {
			return Result{}, err
		}
		res := Result{
			Allocation:    joint,
			RoundDeadline: roundDeadline,
			Metrics:       s.Evaluate(joint),
			Converged:     true,
			DualBound:     s.GlobalRounds * bound,
		}
		res.Objective = res.Metrics.TotalEnergy
		res.Iterations = []IterationTrace{{Objective: res.Objective, RoundDeadline: roundDeadline}}
		return res, nil
	}
	return alternate(s, w, opts, nil, s.MaxResourceAllocation())
}

// OptimizePaper runs Algorithm 2 in ModeWeighted along the paper's own
// pathways (see Paper): the same alternation as Optimize from the same
// start, with Subproblem 2 solved by Algorithm 1 and, under p.SP1Dual,
// Subproblem 1 by its dual (17). The w1 = 0 corner is the same min-time
// solve as Optimize's.
func OptimizePaper(s *fl.System, w fl.Weights, p Paper) (Result, error) {
	opts := Options{}.withDefaults()
	if err := opts.check(s, w); err != nil {
		return Result{}, err
	}
	if w.W1 == 0 {
		return minTimeCorner(s, w)
	}
	p = p.withDefaults()
	return alternate(s, w, opts, &p, s.MaxResourceAllocation())
}

// minTimeCorner answers the pure-delay corner w1 = 0: Subproblem 2's
// objective vanishes (nu_n = 0) and the whole problem reduces to min-max
// time, solved directly.
func minTimeCorner(s *fl.System, w fl.Weights) (Result, error) {
	mt, err := SolveMinTime(s)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Allocation:    mt.Allocation,
		RoundDeadline: mt.RoundDeadline,
		Metrics:       s.Evaluate(mt.Allocation),
		Objective:     s.Objective(w, mt.Allocation),
		Converged:     true,
	}, nil
}

// alternate runs Algorithm 2's SP1/SP2 alternation in ModeWeighted from
// alloc, which it updates in place and returns as the answer. opts must
// carry its defaults. A nil paper is the served path (direct SP1 and SP2
// solves); otherwise Subproblem 2 runs Algorithm 1 with paper's settings,
// which must carry their defaults. Optimize and OptimizePaper always start
// it at the maximum-resource allocation; the package's tests start it
// elsewhere.
func alternate(s *fl.System, w fl.Weights, opts Options, paper *Paper, alloc fl.Allocation) (Result, error) {
	// Scratch memory: the pooled fallback is safe because everything the
	// Result carries out of this function is copied off the workspace
	// before it returns to the pool.
	ws := opts.Work
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
		opts.Work = ws
	}
	ws.grow(s.N())
	if paper != nil {
		ws.growPaper(s.N())
		ws.lastMu = 0
	}

	var roundDeadline float64
	res := Result{Iterations: make([]IterationTrace, 0, opts.MaxOuter)}
	ws.stashPrev(alloc)
	for k := 0; k < opts.MaxOuter; k++ {
		upTimes := ws.upTimes
		for i := range upTimes {
			upTimes[i] = s.UploadTimeRound(i, alloc.Power[i], alloc.Bandwidth[i])
		}

		// ---- Subproblem 1: frequencies and the round deadline.
		var sp1 SP1Result
		var err error
		var t0 time.Time
		if opts.Trace != nil {
			t0 = time.Now()
		}
		if paper != nil && paper.SP1Dual {
			sp1, err = SolveSubproblem1Dual(s, w, upTimes)
		} else {
			sp1, err = solveSubproblem1Into(s, w, upTimes, ws.freq)
		}
		if opts.Trace != nil {
			opts.Trace.SP1Time += time.Since(t0)
			opts.Trace.OuterIters++
		}
		if err != nil {
			return Result{}, fmt.Errorf("core: Algorithm 2 iteration %d, SP1: %w", k, err)
		}
		copy(alloc.Freq, sp1.Freq)
		roundDeadline = sp1.RoundDeadline

		// ---- Subproblem 2: powers and bandwidths at the new rate floors.
		trace := IterationTrace{RoundDeadline: roundDeadline}
		if w.W1 > 0 {
			w1Rg := w.W1 * s.GlobalRounds
			rmin := ws.rmin
			for i := range s.Devices {
				residual := roundDeadline - s.CompTimeRound(i, alloc.Freq[i])
				if residual <= 0 {
					return Result{}, fmt.Errorf("core: device %d has no upload window at T=%g: %w", i, roundDeadline, ErrInfeasible)
				}
				rmin[i] = s.Devices[i].UploadBits / residual
			}
			if opts.Trace != nil {
				t0 = time.Now()
			}
			var sp2 SP2Result
			if paper == nil {
				sp2, err = solveSubproblem2DirectInto(s, w1Rg, rmin, ws, ws.dirP, ws.dirB)
			} else {
				sp2, err = solveSubproblem2Paper(s, w1Rg, rmin, alloc.Power, alloc.Bandwidth, *paper, ws)
			}
			if opts.Trace != nil {
				opts.Trace.SP2Time += time.Since(t0)
			}
			if err != nil {
				return Result{}, fmt.Errorf("core: Algorithm 2 iteration %d, SP2: %w", k, err)
			}
			copy(alloc.Power, sp2.Power)
			copy(alloc.Bandwidth, sp2.Bandwidth)
			trace.NewtonIters = sp2.Iterations
			trace.PhiResidual = sp2.PhiResidual
		}

		trace.Objective = objectiveFor(s, w, alloc, opts)
		trace.Distance = ws.distPrev(alloc)
		res.Iterations = append(res.Iterations, trace)
		if trace.Distance <= outerTol {
			res.Converged = true
			break
		}
		ws.stashPrev(alloc)
	}

	res.Allocation = alloc
	res.RoundDeadline = roundDeadline
	res.Metrics = s.Evaluate(alloc)
	res.Objective = objectiveFor(s, w, alloc, opts)
	return res, nil
}

// objectiveFor evaluates the objective consistent with the operating mode:
// the weighted sum (8) in ModeWeighted, total energy in ModeDeadline. The
// per-iteration metrics scratch lives in the workspace.
func objectiveFor(s *fl.System, w fl.Weights, a fl.Allocation, opts Options) float64 {
	if opts.Work == nil {
		if opts.Mode == ModeDeadline {
			return s.Evaluate(a).TotalEnergy
		}
		return s.Objective(w, a)
	}
	m := &opts.Work.metrics
	s.EvaluateInto(a, m)
	if opts.Mode == ModeDeadline {
		return m.TotalEnergy
	}
	return w.W1*m.TotalEnergy + w.W2*m.TotalTime
}
