// Package core implements the paper's contribution: the joint
// energy/completion-time resource allocation for federated learning over
// FDMA (Algorithm 2), built from
//
//   - Subproblem 1 (eq. (10)): optimal CPU frequencies and round deadline
//     given the current upload times — a convex program solved exactly by
//     a 1-D golden section over the deadline (SolveSubproblem1);
//   - Subproblem 2 (eq. (11)): minimal transmission energy over powers and
//     bandwidths, solved to global optimality by a direct reduction to a
//     convex waterfilling over bandwidths (SolveSubproblem2Direct);
//   - a min-time solver used for the w1 = 0 corner and baseline
//     initialization; its feasibility test, made once, screens ModeDeadline.
//
// Optimize is the served solver, and Options holds only what it reads.
// The paper's own pathways sit behind Paper and OptimizePaper, for the
// ExtC ablation and the tests: Subproblem 2 by the Newton-like
// sum-of-ratios method of Jong (Algorithm 1), whose inner convex program
// SP2_v2 (eq. (21)) is solved in closed form per Theorem 2/Appendix B
// (Lambert-W waterfilling on the bandwidth price), and optionally
// Subproblem 1 by the paper's Lagrangian dual (17).
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
	// NewtonIters is always 0: Optimize never runs Algorithm 1 (the
	// Newton counts of OptimizePaper are in Result.Iterations). It stays
	// because bench/'s per-layer probe reads it. OuterIters counts
	// Algorithm 2 outer loops (1 for the one-shot deadline path).
	NewtonIters int
	OuterIters  int
	// ModeDeadline only: bandwidth prices tried, per-device split costs
	// evaluated at them, the polish waterfills' demand sweeps over all
	// devices, each waterfill's final band sweep included, the polish
	// re-splits' cost and slope evaluations at fixed bands, and the band
	// inversions of the split costs and the polish (water level, pmax
	// floor, pmin junction, free-branch band) that ran cold, with no start
	// from the device's last answer that the Newton or Halley iteration
	// could use.
	PriceEvals     int
	SplitEvals     int
	LevelEvals     int
	ResplitEvals   int
	ColdInversions int
}

// Paper selects the paper's own pathways for Algorithm 2. Only
// OptimizePaper reads one; the ExtC ablation and the tests build it, and
// no served request can. The zero value runs Subproblem 2 by Algorithm 1
// (Jong's Newton-like sum-of-ratios method) with the clamp-aware inner
// SP2_v2 solve and Subproblem 1 by the direct 1-D solve.
//
// Algorithm 1 reaches the direct reduction's optimum when it converges.
// It answers wherever the direct solve does on
// TestDirectAnswersWhereverNewton's 400-instance grid, fixed-power
// (PMin = PMax) systems included, and TestAlgorithm1FixedPowerBracket
// holds it within 1e-6 of the direct objective on the fixed-power system
// it once failed. Its damped Newton iteration can still stall short of the
// optimum when the inner SP2_v2 solution is bang-bang in the multipliers,
// and an inner price search that finds no bracket (possible only when
// every device's multipliers are degenerate, so no demand grows as the
// price falls) fails with an error wrapping numeric.ErrNoBracket.
type Paper struct {
	// SP1Dual solves Subproblem 1 through the paper's dual (17) instead of
	// the direct 1-D solve. Both give the same optimum; the direct solve
	// additionally honours the frequency boxes exactly.
	SP1Dual bool
	// SP2Dual switches Algorithm 1's inner SP2_v2 solve to the literal
	// Appendix-B dual (all-binding price root + greedy (A.6)) instead of
	// the clamp-aware waterfilling.
	SP2Dual bool
	// MaxNewton bounds Algorithm 1 iterations (paper: i0). Default 50.
	MaxNewton int
}

// Algorithms 1 and 2's fixed tolerances.
const (
	// outerTol is the alternation's allocation-distance stopping
	// tolerance (paper: eps0).
	outerTol = 1e-6
	// phiTol is Algorithm 1's |phi| stopping tolerance, relative to the
	// initial residual.
	phiTol = 1e-9
	// newtonXi and newtonEpsilon are Algorithm 1's line-search parameters
	// (paper: xi and eps in (0,1)).
	newtonXi      = 0.5
	newtonEpsilon = 0.01
)

func (p Paper) withDefaults() Paper {
	if p.MaxNewton <= 0 {
		p.MaxNewton = 50
	}
	return p
}

func (o Options) withDefaults() Options {
	if o.Mode == 0 {
		o.Mode = ModeWeighted
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 30
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
	// Converged reports whether the outer loop met its 1e-6 allocation
	// distance tolerance before MaxOuter.
	Converged bool
	// DualBound, in ModeDeadline, is a lower bound on the optimal total
	// energy over all rounds (J): the dual function at the deadline
	// solve's final price bracket, times Rg. Objective - DualBound is then
	// a certificate of the answer's optimality gap. It is 0 for weighted
	// solves and never leaves the process on the wire.
	DualBound float64
}
