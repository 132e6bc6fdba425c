package serve

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fl"
)

// SolverName selects which algorithm answers a request. All solvers run
// through the same fingerprint/cache/stats pipeline; the name is part of
// the fingerprint so results never cross-contaminate between solvers.
type SolverName string

const (
	// SolverAlgorithm2 is the paper's alternating optimizer (the default;
	// the empty string is an alias).
	SolverAlgorithm2 SolverName = "algorithm2"
	// SolverScheme1 is the Yang et al. comparator: energy minimization
	// under a hard completion-time limit (deadline mode only).
	SolverScheme1 SolverName = "scheme1"
	// SolverSimplified is the linearized-Shannon baseline of ref. [3]
	// (weighted mode only).
	SolverSimplified SolverName = "simplified"
)

// normalize folds the empty alias onto the canonical name.
func (n SolverName) normalize() SolverName {
	if n == "" {
		return SolverAlgorithm2
	}
	return n
}

// solveFunc resolves the request's solver to a callable with the common
// solve signature, validating that the request's mode fits the solver.
// The default solver comes from the server config (tests override it).
func (s *Server) solveFunc(req Request) (func(*fl.System, fl.Weights, core.Options) (core.Result, error), error) {
	switch req.Solver.normalize() {
	case SolverAlgorithm2:
		return s.cfg.Solver, nil
	case SolverScheme1:
		if req.Options.Mode != core.ModeDeadline || !(req.Options.TotalDeadline > 0) {
			return nil, fmt.Errorf("solver %q requires mode \"deadline\" with a positive total deadline: %w", req.Solver, ErrBadRequest)
		}
		return scheme1Solver, nil
	case SolverSimplified:
		if req.Options.Mode == core.ModeDeadline {
			return nil, fmt.Errorf("solver %q serves only the weighted mode: %w", req.Solver, ErrBadRequest)
		}
		return simplifiedSolver, nil
	default:
		return nil, fmt.Errorf("unknown solver %q: %w", req.Solver, ErrBadRequest)
	}
}

// scheme1Solver adapts baselines.Scheme1 (allocation only) to the common
// solve signature, evaluating the full metrics at its fixed point. Like
// core's deadline mode, the reported objective is the total energy.
func scheme1Solver(s *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
	a, err := baselines.Scheme1(s, o.TotalDeadline, baselines.Scheme1Options{})
	if err != nil {
		return core.Result{}, err
	}
	m := s.Evaluate(a)
	return core.Result{
		Allocation:    a,
		RoundDeadline: o.TotalDeadline / s.GlobalRounds,
		Metrics:       m,
		Objective:     m.TotalEnergy,
		Converged:     true,
	}, nil
}

// simplifiedSolver adapts baselines.SimplifiedShannon to the common solve
// signature.
func simplifiedSolver(s *fl.System, w fl.Weights, _ core.Options) (core.Result, error) {
	a, err := baselines.SimplifiedShannon(s, w)
	if err != nil {
		return core.Result{}, err
	}
	m := s.Evaluate(a)
	return core.Result{
		Allocation:    a,
		RoundDeadline: m.RoundTime,
		Metrics:       m,
		Objective:     s.Objective(w, a),
		Converged:     true,
	}, nil
}
