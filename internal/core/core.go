// Package core implements the paper's contribution: the joint
// energy/completion-time resource allocation for federated learning over
// FDMA (Algorithm 2), built from
//
//   - Subproblem 1 (eq. (10)): optimal CPU frequencies and round deadline
//     given the current upload times — a convex program solved exactly both
//     directly (1-D golden section over the deadline) and via the paper's
//     Lagrangian dual (17);
//   - Subproblem 2 (eq. (11)): minimal transmission energy over powers and
//     bandwidths — an NP-hard sum-of-ratios program handled with the
//     Newton-like method of Jong (Algorithm 1), whose inner convex program
//     SP2_v2 (eq. (21)) is solved in closed form per Theorem 2/Appendix B
//     (Lambert-W waterfilling on the bandwidth price);
//   - a min-time solver used for feasibility probing, the w1 = 0 corner, and
//     baseline initialization.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fl"
)

// ErrInfeasible is returned when no allocation can satisfy the constraints
// (e.g. a deadline below the physical minimum round time).
var ErrInfeasible = errors.New("core: infeasible instance")

// ErrBadInput flags malformed arguments (wrong lengths, non-positive
// weights where positive ones are required).
var ErrBadInput = errors.New("core: bad input")

// SP2Method selects how Subproblem 2 is solved.
type SP2Method int

const (
	// SP2Hybrid (default) runs the paper's Algorithm 1 and polishes the
	// result with the direct reduction solver, returning the better
	// allocation. Algorithm 1's damped Newton iteration can stall when the
	// inner SP2_v2 solution is bang-bang in the multipliers; the polish
	// restores global optimality in those cases at negligible cost.
	SP2Hybrid SP2Method = iota
	// SP2NewtonOnly runs the paper's Algorithm 1 alone (fidelity mode).
	SP2NewtonOnly
	// SP2DirectOnly runs only the reduction-based global solver
	// (SolveSubproblem2Direct).
	SP2DirectOnly
)

// Mode selects the optimizer's operating regime.
type Mode int

const (
	// ModeWeighted solves problem (8)/(9): minimize w1*E + w2*T with the
	// round deadline a free variable.
	ModeWeighted Mode = iota + 1
	// ModeDeadline solves the energy-only variant used in Figs. 7 and 8:
	// minimize E subject to a fixed total completion time (w1 = 1, w2 = 0,
	// T fixed), the setting of Scheme 1 comparisons.
	ModeDeadline
)

// Options configures the optimizer (Algorithm 2).
type Options struct {
	// Mode selects weighted or deadline-constrained operation; defaults to
	// ModeWeighted.
	Mode Mode
	// TotalDeadline is the fixed total completion time in seconds for
	// ModeDeadline (the per-round deadline is TotalDeadline/Rg).
	TotalDeadline float64
	// MaxOuter bounds Algorithm 2 iterations (paper: K). Default 30.
	MaxOuter int
	// MaxNewton bounds Algorithm 1 iterations (paper: i0). Default 50.
	MaxNewton int
	// OuterTol is the allocation-distance stopping tolerance (paper: eps0).
	// Default 1e-6.
	OuterTol float64
	// PhiTol is the |phi| stopping tolerance of Algorithm 1. Default 1e-9
	// relative to the initial residual.
	PhiTol float64
	// Xi and Epsilon are the line-search parameters of Algorithm 1
	// (paper: xi, eps in (0,1)). Defaults 0.5 and 0.01.
	Xi, Epsilon float64
	// UsePaperSP1Dual switches Subproblem 1 to the paper's dual (17)
	// pathway instead of the direct 1-D solve. Both give the same optimum;
	// the direct solve additionally honours the frequency boxes exactly.
	UsePaperSP1Dual bool
	// UsePaperSP2Dual switches SP2_v2 to the literal Appendix-B dual
	// (all-binding price root + greedy (A.6)) instead of the clamp-aware
	// waterfilling.
	UsePaperSP2Dual bool
	// SP2Solver selects the Subproblem 2 strategy (default SP2Hybrid).
	SP2Solver SP2Method
	// JointWeighted replaces the paper's alternating loop in ModeWeighted
	// with the joint 1-D-over-deadline solver (SolveWeightedJoint), which
	// restores the compute/communicate tradeoff the alternation freezes.
	// Slower (one deadline solve per search point) but strictly stronger.
	JointWeighted bool
	// Start optionally overrides the initial allocation; when nil the
	// optimizer starts from p = PMax, f = FMax, B = B/N.
	Start *fl.Allocation
	// DualStart optionally seeds Subproblem 2 with a converged dual state
	// from a neighbouring instance (typically cached next to the Start
	// allocation). A valid seed certifies the start point as a Newton fixed
	// point: the first SP2 call verifies the certificate with one residual
	// evaluation and, under the hybrid solver's direct polish, accepts it
	// with zero Newton iterations when the relative residual is below
	// DualSeedTol; the cached bandwidth price narrows the inner bisection
	// bracket. A stale or malformed seed (wrong length, non-finite or
	// non-positive entries, residual above tolerance) is safely ignored and
	// the solve proceeds exactly as unseeded.
	DualStart *DualState
	// DualSeedTol is the relative phi-residual tolerance at which a seeded
	// Subproblem 2 accepts its certificate, measured against the magnitude
	// of the residual's constituent terms. Default 1e-6, matching the outer
	// loop's allocation resolution (OuterTol).
	DualSeedTol float64
	// Work optionally supplies reusable scratch memory; when nil the
	// optimizer borrows a pooled workspace. Callers that solve in a loop
	// (serving workers) pass their own to keep the hot path allocation-free.
	// A Workspace must not be shared between concurrent solves.
	Work *Workspace
	// Trace, when non-nil, receives per-phase solver timing (SP1/SP2 wall
	// time, Newton and outer iteration counts). The serving layer points
	// this at a request-scoped struct so a lifecycle trace can attribute
	// solve time to its subproblems; unset, the hook costs one nil check
	// per phase.
	Trace *SolveTrace
}

// Dual-seed certificate outcomes recorded in SolveTrace.DualSeedOutcome.
const (
	// DualSeedNone: no valid dual seed was offered to the first SP2 call.
	DualSeedNone = "none"
	// DualSeedAccepted: the raw cached multipliers passed the residual
	// certificate — the solve skipped its Newton iterations outright.
	DualSeedAccepted = "accepted"
	// DualSeedProjected: the raw multipliers missed, but the certificate
	// projected through the start allocation onto the current channel
	// gains passed the re-check.
	DualSeedProjected = "projected"
	// DualSeedRejected: both checks missed and the full iteration ran.
	DualSeedRejected = "rejected"
	// DualSeedErrored: the seeded inner solve failed and the solve fell
	// back to the unseeded step-3 init.
	DualSeedErrored = "errored"
)

// SolveTrace accumulates per-phase timing facts for one Optimize call.
// The caller owns the struct and Optimize adds into it, so a staged or
// retried solve aggregates naturally. Fields are written without
// synchronization: do not share one SolveTrace between concurrent solves.
type SolveTrace struct {
	// SP1Time and SP2Time are cumulative wall time spent in Subproblem 1
	// (frequencies/deadline) and Subproblem 2 (powers/bandwidths). In
	// ModeDeadline, SP1Time covers the min-time feasibility probe and
	// SP2Time the joint dual-decomposition solve.
	SP1Time time.Duration
	SP2Time time.Duration
	// NewtonIters totals Subproblem 2 Newton iterations; OuterIters counts
	// Algorithm 2 outer loops (1 for the one-shot deadline path).
	NewtonIters int
	OuterIters  int
	// DualSeedOutcome records the fate of the dual-seed certificate at the
	// first Subproblem 2 call — the externally seeded one — as a DualSeed*
	// label ("" when SP2 never ran). Later calls inside the same Optimize
	// are self-seeded confirmation iterations and do not overwrite it.
	DualSeedOutcome string
	// BracketSeeded and BracketDiscovered count inner SP2_v2 price
	// searches whose bisection bracket came from a carried clearing price
	// versus from-scratch discovery; BracketRelWidth accumulates each
	// search's relative bracket width (muHi-muLo)/mu at bisection entry,
	// so BracketRelWidth/(BracketSeeded+BracketDiscovered) is the solve's
	// mean bracket quality.
	BracketSeeded     int
	BracketDiscovered int
	BracketRelWidth   float64
	// ModeDeadline only: bandwidth prices tried, per-device split costs
	// evaluated at them, and candidate splits polished (2 across a jump).
	PriceEvals int
	SplitEvals int
	Polishes   int
}

func (o Options) withDefaults() Options {
	if o.Mode == 0 {
		o.Mode = ModeWeighted
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 30
	}
	if o.MaxNewton <= 0 {
		o.MaxNewton = 50
	}
	if o.OuterTol <= 0 {
		o.OuterTol = 1e-6
	}
	if o.PhiTol <= 0 {
		o.PhiTol = 1e-9
	}
	if o.Xi <= 0 || o.Xi >= 1 {
		o.Xi = 0.5
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		o.Epsilon = 0.01
	}
	if o.DualSeedTol <= 0 {
		o.DualSeedTol = 1e-6
	}
	return o
}

func (o Options) check(s *fl.System, w fl.Weights) error {
	if err := s.Check(); err != nil {
		return err
	}
	if err := w.Check(); err != nil {
		return err
	}
	if o.Mode == ModeDeadline && !(o.TotalDeadline > 0) {
		return fmt.Errorf("core: ModeDeadline needs TotalDeadline > 0: %w", ErrBadInput)
	}
	if o.Start != nil {
		if err := s.Validate(*o.Start, 1e-9); err != nil {
			return fmt.Errorf("core: Start allocation: %w", err)
		}
	}
	return nil
}

// IterationTrace records one outer iteration of Algorithm 2 for convergence
// diagnostics and tests.
type IterationTrace struct {
	// Objective is the weighted objective after the iteration.
	Objective float64
	// RoundDeadline is the per-round deadline T chosen by Subproblem 1.
	RoundDeadline float64
	// Distance is the allocation change versus the previous iterate.
	Distance float64
	// NewtonIters is the number of Algorithm 1 iterations used.
	NewtonIters int
	// PhiResidual is |phi| at Algorithm 1 exit.
	PhiResidual float64
}

// Result is the output of the optimizer.
type Result struct {
	// Allocation is the final (p, B, f).
	Allocation fl.Allocation
	// RoundDeadline is the final per-round deadline T (seconds).
	RoundDeadline float64
	// Metrics is the full accounting at the final allocation.
	Metrics fl.Metrics
	// Objective is the achieved weighted objective value.
	Objective float64
	// Iterations traces the outer loop.
	Iterations []IterationTrace
	// Converged reports whether the outer loop met OuterTol before MaxOuter.
	Converged bool
	// Duals is the converged Subproblem 2 dual state at the final
	// allocation (nil when the solve never ran SP2: deadline mode, w1 = 0,
	// joint weighted, baselines). Cache it next to the allocation and pass
	// it back via Options.DualStart to let a neighbouring solve skip the
	// Newton iteration.
	Duals *DualState
}
