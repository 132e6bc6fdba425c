package main

// The -sweep mode replays one drifting-gain scenario stream through every
// solver the serving path offers — the paper's Algorithm 2, the Scheme 1
// comparator (Yang et al., deadline mode) and the linearized-Shannon
// simplified baseline (weighted mode) — through a shared in-process
// serve.Server, and prints a served-objective diff table. It is the
// serving-path complement of the figure sweeps: the same instance stream a
// base station would see, answered by all three algorithms through the one
// cache/fingerprint pipeline (solver-keyed, so entries never cross), with
// the weighted objectives diffed against the simplified baseline and the
// deadline-mode energies diffed against Scheme 1.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/serve"
)

// runSweep replays steps drifted instances (N = n devices, log-normal gain
// drift of sweepDrift nepers per step) and prints, per step:
//
//   - the weighted objective (w1 = w2 = 0.5) of Algorithm 2 and of the
//     simplified baseline, with the baseline's excess in percent;
//   - the total energy under a fixed deadline of the proposed deadline-mode
//     solver and of Scheme 1, with Scheme 1's excess in percent.
func runSweep(steps, n int, sweepDrift, deadline, radius float64, seed int64) error {
	srv := repro.NewServer(repro.ServeConfig{})
	defer srv.Close()

	sc := repro.DefaultScenario()
	sc.N = n
	// A wider placement disk than the paper default spreads the SNRs; the
	// simplified-Shannon baseline tracks Algorithm 2 almost exactly in
	// homogeneous deployments (see the ExtB ablation), so the diff table
	// defaults to the regime where the solvers actually disagree.
	sc.RadiusKm = radius
	sys, err := sc.Build(rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	weighted := repro.Weights{W1: 0.5, W2: 0.5}
	energyOnly := repro.Weights{W1: 1, W2: 0}

	solve := func(s *repro.System, w repro.Weights, solver serve.SolverName, opts repro.Options) (repro.ServeResponse, error) {
		return srv.Solve(context.Background(), repro.ServeRequest{
			System:  s,
			Weights: w,
			Options: opts,
			Solver:  solver,
		})
	}
	pct := func(base, other float64) float64 {
		if base == 0 {
			return math.NaN()
		}
		return 100 * (other - base) / base
	}

	fmt.Printf("served-objective sweep: N=%d, radius %.3g km, drift %.3g nepers/step, deadline %.4gs, seed %d\n",
		n, radius, sweepDrift, deadline, seed)
	fmt.Printf("%4s  %12s %12s %8s %8s  %12s %12s %8s\n",
		"step", "alg2 w-obj", "simplified", "obj%", "txE%", "alg2 E/J", "scheme1 E/J", "diff%")
	var sumSimp, sumSimpTx, sumS1 float64
	counted := 0
	for step := 0; step < steps; step++ {
		if step > 0 {
			// One scenario stream: the SAME system drifts between steps, so
			// consecutive instances share a topology bucket (exactly what a
			// live base station sees).
			for i := range sys.Devices {
				sys.Devices[i].Gain *= math.Exp(sweepDrift * rng.NormFloat64())
			}
		}
		// Each request gets a private snapshot: the server may retain the
		// system for the duration of the solve while we drift the original.
		snap := *sys
		snap.Devices = append([]repro.Device(nil), sys.Devices...)

		a2w, err := solve(&snap, weighted, serve.SolverAlgorithm2, repro.Options{})
		if err != nil {
			return fmt.Errorf("step %d algorithm2 weighted: %w", step, err)
		}
		simp, err := solve(&snap, weighted, serve.SolverSimplified, repro.Options{})
		if err != nil {
			return fmt.Errorf("step %d simplified: %w", step, err)
		}
		dopts := repro.Options{Mode: repro.ModeDeadline, TotalDeadline: deadline}
		a2d, err := solve(&snap, energyOnly, serve.SolverAlgorithm2, dopts)
		if err != nil {
			return fmt.Errorf("step %d algorithm2 deadline: %w", step, err)
		}
		s1, err := solve(&snap, energyOnly, serve.SolverScheme1, dopts)
		if err != nil {
			return fmt.Errorf("step %d scheme1: %w", step, err)
		}

		// The weighted objective is delay-dominated at the paper's
		// constants, so the overall diff hides the simplification's real
		// cost; the transmission-energy column (txE%) is where the
		// linearized Shannon model pays.
		dSimp := pct(a2w.Result.Objective, simp.Result.Objective)
		dSimpTx := pct(a2w.Result.Metrics.TransEnergy, simp.Result.Metrics.TransEnergy)
		dS1 := pct(a2d.Result.Objective, s1.Result.Objective)
		sumSimp += dSimp
		sumSimpTx += dSimpTx
		sumS1 += dS1
		counted++
		fmt.Printf("%4d  %12.6g %12.6g %+7.2f%% %+7.2f%%  %12.6g %12.6g %+7.2f%%\n",
			step, a2w.Result.Objective, simp.Result.Objective, dSimp, dSimpTx,
			a2d.Result.Objective, s1.Result.Objective, dS1)
	}
	if counted > 0 {
		fmt.Printf("mean excess over Algorithm 2: simplified %+.2f%% obj / %+.2f%% tx-energy, scheme1 %+.2f%% energy (over %d steps)\n",
			sumSimp/float64(counted), sumSimpTx/float64(counted), sumS1/float64(counted), counted)
	}
	st := srv.Stats()
	fmt.Printf("serving path: %d requests, %d cache hits, %d cold solves (p50 %.1f ms)\n",
		st.Requests, st.Hits, st.ColdSolves, st.SolveP50*1e3)
	return nil
}
