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
// or MaxOuter iterations. Subproblem 2 is solved by the direct reduction
// unless Options.SP2Solver selects the paper's Algorithm 1 (SP2NewtonOnly);
// see SolveSubproblem2.
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

	// Pure-delay corner: Subproblem 2's objective vanishes (nu_n = 0); the
	// whole problem reduces to min-max time, solved directly.
	if opts.Mode == ModeWeighted && w.W1 == 0 {
		mt, err := SolveMinTime(s)
		if err != nil {
			return Result{}, err
		}
		m := s.Evaluate(mt.Allocation)
		return Result{
			Allocation:    mt.Allocation,
			RoundDeadline: mt.RoundDeadline,
			Metrics:       m,
			Objective:     s.Objective(w, mt.Allocation),
			Converged:     true,
		}, nil
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
		joint, _, err := solveDeadlineJoint(s, roundDeadline, opts.Trace)
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
		}
		res.Objective = res.Metrics.TotalEnergy
		res.Iterations = []IterationTrace{{Objective: res.Objective, RoundDeadline: roundDeadline}}
		return res, nil
	}
	return alternate(s, w, opts, s.MaxResourceAllocation())
}

// alternate runs Algorithm 2's SP1/SP2 alternation in ModeWeighted from
// alloc, which it updates in place and returns as the answer. opts must
// carry its defaults. Optimize always starts it at the maximum-resource
// allocation; the package's tests start it elsewhere.
func alternate(s *fl.System, w fl.Weights, opts Options, alloc fl.Allocation) (Result, error) {
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
	ws.lastMu = 0

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
		if opts.UsePaperSP1Dual {
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
			sp2, err := SolveSubproblem2(s, w1Rg, rmin, alloc.Power, alloc.Bandwidth, opts)
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
			if opts.Trace != nil {
				opts.Trace.NewtonIters += sp2.Iterations
			}
		}

		trace.Objective = objectiveFor(s, w, alloc, opts)
		trace.Distance = ws.distPrev(alloc)
		res.Iterations = append(res.Iterations, trace)
		if trace.Distance <= opts.OuterTol {
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
