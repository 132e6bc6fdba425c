package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/convex"
	"repro/internal/fl"
	"repro/internal/wireless"
)

// randomSP2Instance draws (nu, beta, rmin) the way Algorithm 1 would: from a
// feasible (p, B) point, with rate floors at a fraction of current rates.
func randomSP2Instance(s *fl.System, seed int64) (nu, beta, rmin []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := s.N()
	nu = make([]float64, n)
	beta = make([]float64, n)
	rmin = make([]float64, n)
	w1Rg := (0.1 + 0.9*rng.Float64()) * s.GlobalRounds
	for i, d := range s.Devices {
		p := d.PMin + rng.Float64()*(d.PMax-d.PMin)
		b := s.Bandwidth / float64(n) * (0.5 + rng.Float64())
		g := s.Rate(i, p, b)
		nu[i] = w1Rg / g
		beta[i] = p * d.UploadBits / g
		rmin[i] = g * (0.1 + 0.6*rng.Float64())
	}
	return nu, beta, rmin
}

// sp2Objective evaluates sum nu_n (p_n d_n - beta_n G_n).
func sp2Objective(s *fl.System, nu, beta, p, b []float64) float64 {
	var sum float64
	for i, d := range s.Devices {
		sum += nu[i] * (p[i]*d.UploadBits - beta[i]*s.Rate(i, p[i], b[i]))
	}
	return sum
}

func checkSP2Feasible(t *testing.T, s *fl.System, rmin, p, b []float64) {
	t.Helper()
	var sumB float64
	for i, d := range s.Devices {
		if p[i] < d.PMin*(1-1e-9) || p[i] > d.PMax*(1+1e-9) {
			t.Errorf("p[%d] = %g outside [%g,%g]", i, p[i], d.PMin, d.PMax)
		}
		if b[i] <= 0 {
			t.Errorf("B[%d] = %g not positive", i, b[i])
		}
		if r := s.Rate(i, p[i], b[i]); r < rmin[i]*(1-1e-6) {
			t.Errorf("rate[%d] = %g below floor %g", i, r, rmin[i])
		}
		sumB += b[i]
	}
	if sumB > s.Bandwidth*(1+1e-9) {
		t.Errorf("sum B = %g exceeds %g", sumB, s.Bandwidth)
	}
}

func TestSolveSP2v2FeasibilityAndShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := newTestSystem(5, seed)
		nu, beta, rmin := randomSP2Instance(s, seed+100)
		res, err := SolveSP2v2(s, nu, beta, rmin)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkSP2Feasible(t, s, rmin, res.Power, res.Bandwidth)
		if res.Mu <= 0 {
			t.Errorf("seed %d: clearing price %g should be positive", seed, res.Mu)
		}
		// The band constraint always binds at the optimum (extra bandwidth
		// strictly reduces transmission energy).
		var sumB float64
		for _, b := range res.Bandwidth {
			sumB += b
		}
		if sumB < s.Bandwidth*0.999 {
			t.Errorf("seed %d: only %g of %g Hz used", seed, sumB, s.Bandwidth)
		}
	}
}

// The closed-form waterfilling must match the generic barrier oracle.
func TestSolveSP2v2MatchesBarrierOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle comparison is slow")
	}
	for seed := int64(1); seed <= 8; seed++ {
		s := newTestSystem(4, seed)
		nu, beta, rmin := randomSP2Instance(s, seed+7)
		res, err := SolveSP2v2(s, nu, beta, rmin)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracleObj, oracleErr := sp2BarrierOracle(s, nu, beta, rmin)
		if oracleErr != nil {
			t.Fatalf("seed %d oracle: %v", seed, oracleErr)
		}
		got := sp2Objective(s, nu, beta, res.Power, res.Bandwidth)
		// The closed form must not be worse than the oracle beyond solver
		// slack (the oracle itself is approximate).
		scale := math.Max(math.Abs(got), math.Abs(oracleObj))
		if got > oracleObj+2e-3*scale {
			t.Errorf("seed %d: waterfilling obj %.8g worse than oracle %.8g", seed, got, oracleObj)
		}
	}
}

// sp2BarrierOracle solves SP2_v2 with the generic interior-point method and
// returns the objective value.
func sp2BarrierOracle(s *fl.System, nu, beta, rmin []float64) (float64, error) {
	n := s.N()
	// Variables x = [p_1..p_n, B_1..B_n].
	lower := make([]float64, 2*n)
	upper := make([]float64, 2*n)
	x0 := make([]float64, 2*n)
	for i, d := range s.Devices {
		lower[i] = d.PMin
		upper[i] = d.PMax
		lower[n+i] = 1 // 1 Hz floor keeps logs finite
		upper[n+i] = s.Bandwidth
		x0[i] = d.PMax * 0.999
		x0[n+i] = s.Bandwidth / float64(n) * 0.98
	}
	dG := func(i int, p, b float64) (gp, gb float64) {
		theta := p * s.Devices[i].Gain / (s.N0 * b)
		gp = s.Devices[i].Gain / (s.N0 * math.Ln2 * (1 + theta))
		gb = math.Log2(1+theta) - theta/((1+theta)*math.Ln2)
		return gp, gb
	}
	prob := convex.Problem{
		Objective: func(x []float64) float64 {
			var sum float64
			for i, d := range s.Devices {
				sum += nu[i] * (x[i]*d.UploadBits - beta[i]*s.Rate(i, x[i], x[n+i]))
			}
			return sum
		},
		Gradient: func(x, out []float64) {
			for i, d := range s.Devices {
				gp, gb := dG(i, x[i], x[n+i])
				out[i] = nu[i] * (d.UploadBits - beta[i]*gp)
				out[n+i] = -nu[i] * beta[i] * gb
			}
		},
		Lower: lower,
		Upper: upper,
	}
	// sum B <= B_total.
	prob.Ineqs = append(prob.Ineqs, convex.Constraint{
		F: func(x []float64) float64 {
			var sum float64
			for i := 0; i < n; i++ {
				sum += x[n+i]
			}
			return sum - s.Bandwidth
		},
		Grad: func(x, out []float64) {
			for i := range out {
				out[i] = 0
			}
			for i := 0; i < n; i++ {
				out[n+i] = 1
			}
		},
	})
	// Rate floors: rmin - G <= 0.
	for i := range s.Devices {
		i := i
		prob.Ineqs = append(prob.Ineqs, convex.Constraint{
			F: func(x []float64) float64 { return rmin[i] - s.Rate(i, x[i], x[n+i]) },
			Grad: func(x, out []float64) {
				for j := range out {
					out[j] = 0
				}
				gp, gb := dG(i, x[i], x[n+i])
				out[i] = -gp
				out[n+i] = -gb
			},
		})
	}
	// Verify x0 strict feasibility wrt rates (instances are drawn that way).
	for i := range s.Devices {
		if s.Rate(i, x0[i], x0[n+i]) <= rmin[i] {
			// Push bandwidth up for this device within the budget.
			x0[n+i] = math.Min(s.Bandwidth*0.5, x0[n+i]*4)
		}
	}
	xs, err := convex.Minimize(prob, x0, convex.Options{Tol: 1e-10})
	if err != nil {
		return 0, err
	}
	var obj float64
	for i, d := range s.Devices {
		obj += nu[i] * (xs[i]*d.UploadBits - beta[i]*s.Rate(i, xs[i], xs[n+i]))
	}
	return obj, nil
}

func TestSolveSP2v2PaperDualAgrees(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		s := newTestSystem(5, seed)
		nu, beta, rmin := randomSP2Instance(s, seed+55)
		wf, err := SolveSP2v2(s, nu, beta, rmin)
		if err != nil {
			t.Fatalf("seed %d waterfilling: %v", seed, err)
		}
		pd, err := SolveSP2v2PaperDual(s, nu, beta, rmin)
		if err != nil {
			t.Fatalf("seed %d paper dual: %v", seed, err)
		}
		checkSP2Feasible(t, s, rmin, pd.Power, pd.Bandwidth)
		objWF := sp2Objective(s, nu, beta, wf.Power, wf.Bandwidth)
		objPD := sp2Objective(s, nu, beta, pd.Power, pd.Bandwidth)
		// The waterfilling folds the tau clamp into the price search and
		// must never be meaningfully worse than the literal pathway.
		scale := math.Max(math.Abs(objWF), math.Abs(objPD))
		if objWF > objPD+1e-6*scale {
			t.Errorf("seed %d: waterfilling %.10g worse than paper dual %.10g", seed, objWF, objPD)
		}
	}
}

func TestSolveSP2v2Infeasible(t *testing.T) {
	s := newTestSystem(3, 3)
	nu, beta, rmin := randomSP2Instance(s, 9)
	// Demand wideband-impossible rates.
	for i, d := range s.Devices {
		rmin[i] = wireless.RateLimit(d.PMax, d.Gain, s.N0) * 2
	}
	if _, err := SolveSP2v2(s, nu, beta, rmin); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unreachable rates: want ErrInfeasible, got %v", err)
	}
	// Rates reachable per-device but not jointly within B.
	nu2, beta2, rmin2 := randomSP2Instance(s, 10)
	for i, d := range s.Devices {
		lim := wireless.RateLimit(d.PMax, d.Gain, s.N0)
		rmin2[i] = lim * 0.999999 // needs essentially infinite bandwidth
	}
	if _, err := SolveSP2v2(s, nu2, beta2, rmin2); !errors.Is(err, ErrInfeasible) {
		t.Errorf("band overcommitted: want ErrInfeasible, got %v", err)
	}
	_ = nu2
	_ = beta2
}

func TestSolveSP2v2BadInput(t *testing.T) {
	s := newTestSystem(3, 4)
	nu, beta, rmin := randomSP2Instance(s, 4)
	if _, err := SolveSP2v2(s, nu[:2], beta, rmin); !errors.Is(err, ErrBadInput) {
		t.Errorf("short nu: want ErrBadInput, got %v", err)
	}
	nuBad := append([]float64(nil), nu...)
	nuBad[0] = 0
	if _, err := SolveSP2v2(s, nuBad, beta, rmin); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero nu: want ErrBadInput, got %v", err)
	}
	rminBad := append([]float64(nil), rmin...)
	rminBad[1] = 0
	if _, err := SolveSP2v2(s, nu, beta, rminBad); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero rmin: want ErrBadInput, got %v", err)
	}
}

// KKT spot check: at the solution, interior devices (no box or rate
// constraint active) must share the bandwidth price:
// nu*beta*dG/dB = mu, and nu*(d - beta*dG/dp) = 0.
func TestSolveSP2v2KKTStationarity(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := newTestSystem(6, seed)
		nu, beta, rmin := randomSP2Instance(s, seed+31)
		res, err := SolveSP2v2(s, nu, beta, rmin)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range s.Devices {
			p, b := res.Power[i], res.Bandwidth[i]
			interiorP := p > d.PMin*(1+1e-6) && p < d.PMax*(1-1e-6)
			rateSlack := s.Rate(i, p, b) > rmin[i]*(1+1e-6)
			if !(interiorP && rateSlack) {
				continue
			}
			theta := p * d.Gain / (s.N0 * b)
			gp := d.Gain / (s.N0 * math.Ln2 * (1 + theta))
			gb := math.Log2(1+theta) - theta/((1+theta)*math.Ln2)
			// Stationarity in p: nu*(d - beta*gp) = 0.
			if r := math.Abs(nu[i] * (d.UploadBits - beta[i]*gp)); r > 1e-6*nu[i]*d.UploadBits {
				t.Errorf("seed %d device %d: p-stationarity residual %g", seed, i, r)
			}
			// Stationarity in B: nu*beta*gb = mu.
			if relDiff(nu[i]*beta[i]*gb, res.Mu) > 1e-5 {
				t.Errorf("seed %d device %d: B-stationarity %g vs mu %g",
					seed, i, nu[i]*beta[i]*gb, res.Mu)
			}
		}
	}
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func TestGreedyLP(t *testing.T) {
	tests := []struct {
		name   string
		c      []float64
		lo, hi []float64
		budget float64
		want   []float64
	}{
		{
			name: "all negative, budget binds cheapest first",
			c:    []float64{-3, -1, -2},
			lo:   []float64{0, 0, 0},
			hi:   []float64{2, 2, 2},
			// order: idx0 (-3) gets 2, idx2 (-2) gets 1, idx1 gets 0
			budget: 3,
			want:   []float64{2, 0, 1},
		},
		{
			name:   "positive costs stay at lower bounds",
			c:      []float64{1, 2},
			lo:     []float64{0.5, 0.25},
			hi:     []float64{5, 5},
			budget: 10,
			want:   []float64{0.5, 0.25},
		},
		{
			name:   "budget slack, all negatives saturate",
			c:      []float64{-1, -1},
			lo:     []float64{0, 0},
			hi:     []float64{1, 1},
			budget: 10,
			want:   []float64{1, 1},
		},
		{
			name:   "zero cost not raised",
			c:      []float64{0, -1},
			lo:     []float64{0, 0},
			hi:     []float64{4, 4},
			budget: 5,
			want:   []float64{0, 4},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := greedyLP(tc.c, tc.lo, tc.hi, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.want {
				if !almostEq(got[i], tc.want[i], 1e-12) {
					t.Errorf("x[%d] = %g, want %g", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestGreedyLPInfeasible(t *testing.T) {
	_, err := greedyLP([]float64{1}, []float64{5}, []float64{6}, 1)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	_, err = greedyLP([]float64{1}, []float64{5}, []float64{4}, 100)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("reversed box: want ErrInfeasible, got %v", err)
	}
}

// Property: greedyLP output is feasible and no feasible single-coordinate
// perturbation improves the objective (exchange argument).
func TestGreedyLPOptimalityProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		c := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		var loSum float64
		for i := 0; i < n; i++ {
			c[i] = rng.NormFloat64()
			lo[i] = rng.Float64()
			hi[i] = lo[i] + rng.Float64()*3
			loSum += lo[i]
		}
		budget := loSum + rng.Float64()*4
		x, err := greedyLP(c, lo, hi, budget)
		if err != nil {
			return false
		}
		var sum float64
		for i := range x {
			if x[i] < lo[i]-1e-12 || x[i] > hi[i]+1e-12 {
				return false
			}
			sum += x[i]
		}
		if sum > budget+1e-9 {
			return false
		}
		// Exchange check: moving mass from a higher-cost raised variable to
		// a lower-cost unsaturated one must not be possible.
		slack := budget - sum
		for i := 0; i < n; i++ {
			// Could we raise x[i] profitably with remaining slack?
			if c[i] < -1e-12 && x[i] < hi[i]-1e-9 && slack > 1e-9 {
				return false
			}
			for j := 0; j < n; j++ {
				if c[j] < c[i]-1e-9 && x[i] > lo[i]+1e-9 && x[j] < hi[j]-1e-9 && c[j] < 0 {
					return false // swap would strictly improve
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
