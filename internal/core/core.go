// Package core implements the paper's contribution: the joint
// energy/completion-time resource allocation for federated learning over
// FDMA (Algorithm 2), built from
//
//   - Subproblem 1 (eq. (10)): optimal CPU frequencies and round deadline
//     given the current upload times — a convex program solved exactly both
//     directly (1-D golden section over the deadline) and via the paper's
//     Lagrangian dual (17);
//   - Subproblem 2 (eq. (11)): minimal transmission energy over powers and
//     bandwidths — a sum-of-ratios program the paper handles with the
//     Newton-like method of Jong (Algorithm 1, kept as SP2NewtonOnly),
//     whose inner convex program SP2_v2 (eq. (21)) is solved in closed form
//     per Theorem 2/Appendix B (Lambert-W waterfilling on the bandwidth
//     price). By default it is solved to global optimality by a direct
//     reduction to a convex waterfilling over bandwidths
//     (SolveSubproblem2Direct);
//   - a min-time solver used for the w1 = 0 corner and baseline
//     initialization; its feasibility test, made once, screens ModeDeadline.
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
	// SP2DirectOnly (default) solves Subproblem 2 with the direct
	// reduction (SolveSubproblem2Direct): a waterfilling bisection over
	// devices whose power is eliminated in closed form, globally optimal
	// for the subproblem. It is the serving solver.
	SP2DirectOnly SP2Method = iota
	// SP2NewtonOnly runs the paper's Algorithm 1 (Jong's Newton-like
	// sum-of-ratios method with Lambert-W inner waterfilling), the
	// paper-fidelity mode. Its damped Newton iteration can stall when the
	// inner SP2_v2 solution is bang-bang in the multipliers, and its price
	// bisection fails on some PMin = PMax instances where the direct
	// reduction still answers.
	SP2NewtonOnly
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
	// MaxNewton bounds Algorithm 1 iterations (paper: i0; SP2NewtonOnly
	// only). Default 50.
	MaxNewton int
	// OuterTol is the allocation-distance stopping tolerance (paper: eps0).
	// Default 1e-6.
	OuterTol float64
	// PhiTol is the |phi| stopping tolerance of Algorithm 1 (SP2NewtonOnly
	// only). Default 1e-9 relative to the initial residual.
	PhiTol float64
	// Xi and Epsilon are the line-search parameters of Algorithm 1
	// (paper: xi, eps in (0,1)). Defaults 0.5 and 0.01.
	Xi, Epsilon float64
	// UsePaperSP1Dual switches Subproblem 1 to the paper's dual (17)
	// pathway instead of the direct 1-D solve. Both give the same optimum;
	// the direct solve additionally honours the frequency boxes exactly.
	UsePaperSP1Dual bool
	// UsePaperSP2Dual switches Algorithm 1's inner SP2_v2 solve to the
	// literal Appendix-B dual (all-binding price root + greedy (A.6))
	// instead of the clamp-aware waterfilling (SP2NewtonOnly only).
	UsePaperSP2Dual bool
	// SP2Solver selects the Subproblem 2 strategy (default SP2DirectOnly).
	SP2Solver SP2Method
	// JointWeighted replaces the paper's alternating loop in ModeWeighted
	// with the joint 1-D-over-deadline solver (SolveWeightedJoint), which
	// restores the compute/communicate tradeoff the alternation freezes.
	// Slower (one deadline solve per search point) but strictly stronger.
	JointWeighted bool
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

// SolveTrace accumulates per-phase timing facts for one Optimize call.
// The caller owns the struct and Optimize adds into it, so a staged or
// retried solve aggregates naturally. Fields are written without
// synchronization: do not share one SolveTrace between concurrent solves.
type SolveTrace struct {
	// SP1Time and SP2Time are cumulative wall time spent in Subproblem 1
	// (frequencies/deadline) and Subproblem 2 (powers/bandwidths). In
	// ModeDeadline, SP1Time covers the feasibility screen (one pass of N
	// full-power band floors at the requested deadline) and SP2Time the
	// joint dual-decomposition solve.
	SP1Time time.Duration
	SP2Time time.Duration
	// NewtonIters totals Algorithm 1 Newton iterations (0 unless
	// SP2NewtonOnly); OuterIters counts Algorithm 2 outer loops (1 for the
	// one-shot deadline path).
	NewtonIters int
	OuterIters  int
	// ModeDeadline only: bandwidth prices tried, per-device split costs
	// evaluated at them, candidate splits polished (2 across a jump), and
	// the polish waterfills' demand sweeps over all devices, each
	// waterfill's final band sweep included.
	PriceEvals int
	SplitEvals int
	Polishes   int
	LevelEvals int
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
}
