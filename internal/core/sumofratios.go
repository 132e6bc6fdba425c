package core

import (
	"fmt"
	"math"

	"repro/internal/fl"
)

// SP2Result is the solution of Subproblem 2 (eq. (11)).
type SP2Result struct {
	// Power and Bandwidth are the final p_n, B_n.
	Power, Bandwidth []float64
	// Iterations is the number of Algorithm 1 Newton-like iterations used
	// (0 for the direct reduction).
	Iterations int
	// PhiResidual is |phi(beta, nu)| at Algorithm 1 exit (0 at an exact
	// fixed point, and for the direct reduction).
	PhiResidual float64
	// CommEnergy is the achieved weighted transmission energy
	// w1*Rg*sum_n p_n*d_n/G_n, the Subproblem 2 objective.
	CommEnergy float64
}

// phiResidual computes |phi(beta, nu)| of eq. (26) at rates g.
func phiResidual(w1Rg float64, d, p, g, beta, nu []float64) float64 {
	var sum float64
	for i := range d {
		f1 := -p[i]*d[i] + beta[i]*g[i]
		f2 := -w1Rg + nu[i]*g[i]
		sum += f1*f1 + f2*f2
	}
	return math.Sqrt(sum)
}

// SolveSubproblem2 solves Subproblem 2 (eq. (11)) at the rate floors rmin
// with the method Options.SP2Solver selects: by default the direct
// reduction (SolveSubproblem2Direct), which ignores the start point; under
// SP2NewtonOnly the paper's Algorithm 1, the Newton-like iteration of Jong
// for the sum-of-ratios program. Starting from a feasible (p, B) with rates
// at least rmin, Algorithm 1 alternates
//
//	nu_n = w1*Rg / G_n,  beta_n = p_n*d_n / G_n          (step 3, eq. (22)-(23))
//	(p, B) <- argmin SP2_v2(nu, beta)                    (step 4, Theorem 2)
//	damped Newton update of (beta, nu) per (29)-(31)     (steps 5-6)
//
// until phi = 0 (the fixed point where the SP2_v2 solution is optimal for
// the original fractional program) or MaxNewton iterations.
//
// When Options.Work is provided the returned slices alias it and are
// overwritten by the next solve on the same workspace.
func SolveSubproblem2(s *fl.System, w1Rg float64, rmin []float64, startP, startB []float64, opts Options) (SP2Result, error) {
	opts = opts.withDefaults()
	n := s.N()
	if len(rmin) != n || len(startP) != n || len(startB) != n {
		return SP2Result{}, fmt.Errorf("core: SolveSubproblem2 slice lengths: %w", ErrBadInput)
	}
	if !(w1Rg > 0) {
		return SP2Result{}, fmt.Errorf("core: SolveSubproblem2 needs w1*Rg > 0 (w1=0 is handled by SolveMinTime): %w", ErrBadInput)
	}
	ws := opts.Work
	if opts.SP2Solver != SP2NewtonOnly {
		if ws == nil {
			return SolveSubproblem2Direct(s, w1Rg, rmin)
		}
		ws.grow(n)
		return solveSubproblem2DirectInto(s, w1Rg, rmin, ws, ws.dirP, ws.dirB)
	}

	// The workspace owns every slice below. A caller-provided one is reused
	// as documented; otherwise a private one is allocated (not pooled: the
	// returned slices alias it).
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.grow(n)

	d := ws.d
	for i, dev := range s.Devices {
		d[i] = dev.UploadBits
	}

	ratesInto := func(p, b, g []float64) {
		for i := range g {
			g[i] = s.Rate(i, p[i], b[i])
			if !(g[i] > 0) {
				g[i] = math.SmallestNonzeroFloat64
			}
		}
	}

	// evalPhi is the residual map of eq. (26) as a function of the
	// multipliers: it re-solves SP2_v2 at (nu, beta) — the argmin x(beta,nu)
	// is part of phi's definition in Jong's method, so the damped line
	// search (29) must re-solve per trial, not reuse a stale point. The
	// inner solution lands in (outP, outB, outG).
	evalPhi := func(beta, nu, outP, outB, outG []float64) (float64, error) {
		if err := solveInner(s, nu, beta, rmin, opts.UsePaperSP2Dual, ws, outP, outB); err != nil {
			return 0, err
		}
		ratesInto(outP, outB, outG)
		return phiResidual(w1Rg, d, outP, outG, beta, nu), nil
	}

	nu, beta := ws.nu, ws.beta
	curP, curB, curG := ws.curP, ws.curB, ws.curG
	triP, triB, triG := ws.triP, ws.triB, ws.triG

	// Initialize (nu, beta) per step 3 from the start point.
	ratesInto(startP, startB, triG)
	for i := range nu {
		nu[i] = w1Rg / triG[i]
		beta[i] = startP[i] * d[i] / triG[i]
	}
	residual, err := evalPhi(beta, nu, curP, curB, curG)
	if err != nil {
		return SP2Result{}, fmt.Errorf("core: Algorithm 1 initial solve: %w", err)
	}
	phi0 := residual

	var iters int
	for iters = 0; iters < opts.MaxNewton; iters++ {
		if residual <= opts.PhiTol*(1+phi0) {
			break
		}
		// Newton direction (30) with the diagonal Jacobian diag(G_n):
		// sigma1_n = (p_n d_n - beta_n G_n)/G_n, sigma2_n = (w1Rg - nu_n G_n)/G_n.
		sigma1, sigma2 := ws.sigma1, ws.sigma2
		for i := range curG {
			sigma1[i] = (curP[i]*d[i] - beta[i]*curG[i]) / curG[i]
			sigma2[i] = (w1Rg - nu[i]*curG[i]) / curG[i]
		}
		stepTaken := false
		xi := 1.0 // xi^j with j starting at 0
		for j := 0; j < 30; j++ {
			nb, nn := ws.nb, ws.nn
			ok := true
			for i := range curG {
				nb[i] = beta[i] + xi*sigma1[i]
				nn[i] = nu[i] + xi*sigma2[i]
				if !(nb[i] > 0) || !(nn[i] > 0) {
					ok = false
					break
				}
			}
			if ok {
				trial, errT := evalPhi(nb, nn, triP, triB, triG)
				if errT == nil && trial <= (1-opts.Epsilon*xi)*residual {
					// Accept by swapping buffers: the rejected iterate's
					// storage becomes the next trial's scratch.
					ws.beta, ws.nb = ws.nb, ws.beta
					ws.nu, ws.nn = ws.nn, ws.nu
					beta, nu = ws.beta, ws.nu
					ws.curP, ws.triP = ws.triP, ws.curP
					ws.curB, ws.triB = ws.triB, ws.curB
					ws.curG, ws.triG = ws.triG, ws.curG
					curP, curB, curG = ws.curP, ws.curB, ws.curG
					triP, triB, triG = ws.triP, ws.triB, ws.triG
					residual = trial
					stepTaken = true
					break
				}
			}
			xi *= opts.Xi
		}
		if !stepTaken {
			// Even heavily damped steps no longer reduce phi: numerical
			// fixed point of the iteration.
			break
		}
	}

	res := SP2Result{Power: curP, Bandwidth: curB, Iterations: iters, PhiResidual: residual}
	for i := range curG {
		res.CommEnergy += w1Rg * curP[i] * d[i] / curG[i]
	}
	return res, nil
}

// solveInner dispatches the inner SP2_v2 solve, writing powers and
// bandwidths into outP/outB. paperDual selects the literal Appendix-B inner
// solver (fidelity mode, not allocation-free).
func solveInner(s *fl.System, nu, beta, rmin []float64, paperDual bool, ws *Workspace, outP, outB []float64) error {
	if paperDual {
		inner, err := SolveSP2v2PaperDual(s, nu, beta, rmin)
		if err != nil {
			return err
		}
		copy(outP, inner.Power)
		copy(outB, inner.Bandwidth)
		if inner.Mu > 0 {
			ws.lastMu = inner.Mu
		}
		return nil
	}
	_, _, err := solveSP2v2Into(s, nu, beta, rmin, ws, outP, outB)
	return err
}

// CommEnergyWeighted returns w1Rg * sum_n p_n d_n / G_n for an explicit
// allocation — the Subproblem 2 objective, exposed for tests and baselines.
func CommEnergyWeighted(s *fl.System, w1Rg float64, p, b []float64) float64 {
	var sum float64
	for i, dev := range s.Devices {
		g := s.Rate(i, p[i], b[i])
		if g <= 0 {
			return math.Inf(1)
		}
		sum += p[i] * dev.UploadBits / g
	}
	return w1Rg * sum
}
