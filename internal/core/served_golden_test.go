package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/fl"
)

var updateServed = flag.Bool("update", false, "re-record testdata/served_golden.json from the current solver")

const servedGoldenPath = "testdata/served_golden.json"

// servedAnswer is one Optimize answer as raw float bits, so the golden
// comparison is exact rather than within a tolerance.
type servedAnswer struct {
	Name          string   `json:"name"`
	Power         []uint64 `json:"power"`
	Bandwidth     []uint64 `json:"bandwidth"`
	Freq          []uint64 `json:"freq"`
	RoundDeadline uint64   `json:"round_deadline"`
	Objective     uint64   `json:"objective"`
}

func float64Bits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// servedAnswers solves the pinned grid the way a serving worker does (one
// reused Workspace): seeded N = 5 and N = 50 systems, weighted at
// w1 = 0.1, 0.5, 0.9, the w1 = 0 corner, the joint weighted solver at
// w1 = 0.5, and deadline mode.
func servedAnswers(t *testing.T) []servedAnswer {
	t.Helper()
	ws := NewWorkspace()
	var out []servedAnswer
	for _, sz := range []struct {
		n        int
		seed     int64
		deadline float64 // total completion time, s
	}{{5, 3, 60}, {50, 1, 120}} {
		s := newTestSystem(sz.n, sz.seed)
		type run struct {
			name string
			w    fl.Weights
			opts Options
		}
		var runs []run
		for _, w1 := range []float64{0.1, 0.5, 0.9} {
			runs = append(runs, run{fmt.Sprintf("weighted w1=%g", w1), fl.Weights{W1: w1, W2: 1 - w1}, Options{}})
		}
		runs = append(runs,
			run{"weighted w1=0", fl.Weights{W1: 0, W2: 1}, Options{}},
			run{"joint w1=0.5", fl.Weights{W1: 0.5, W2: 0.5}, Options{JointWeighted: true}},
			run{fmt.Sprintf("deadline T=%gs", sz.deadline), fl.Weights{W1: 1, W2: 0}, Options{Mode: ModeDeadline, TotalDeadline: sz.deadline}},
		)
		for _, r := range runs {
			r.opts.Work = ws
			res, err := Optimize(s, r.w, r.opts)
			if err != nil {
				t.Fatalf("N=%d seed=%d %s: %v", sz.n, sz.seed, r.name, err)
			}
			out = append(out, servedAnswer{
				Name:          fmt.Sprintf("N=%d seed=%d %s", sz.n, sz.seed, r.name),
				Power:         float64Bits(res.Allocation.Power),
				Bandwidth:     float64Bits(res.Allocation.Bandwidth),
				Freq:          float64Bits(res.Allocation.Freq),
				RoundDeadline: math.Float64bits(res.RoundDeadline),
				Objective:     math.Float64bits(res.Objective),
			})
		}
	}
	return out
}

// TestServedAnswersGolden pins Optimize's served answers bit for bit to
// testdata/served_golden.json: a change to the solver's option surface or
// plumbing must not move one bit of any allocation, round deadline or
// objective. A change that must move them re-records the file with
// `go test ./internal/core -run TestServedAnswersGolden -update` and says
// why.
func TestServedAnswersGolden(t *testing.T) {
	got := servedAnswers(t)
	if *updateServed {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servedGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(servedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []servedAnswer
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, golden file has %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g.Name != w.Name {
			t.Errorf("answer %d: got %q, want %q", k, g.Name, w.Name)
			continue
		}
		same := func(field string, a, b []uint64) {
			if len(a) != len(b) {
				t.Errorf("%s: %s has %d entries, want %d", w.Name, field, len(a), len(b))
				return
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s: %s[%d] = %v, want %v", w.Name, field, i, math.Float64frombits(a[i]), math.Float64frombits(b[i]))
					return
				}
			}
		}
		same("power", g.Power, w.Power)
		same("bandwidth", g.Bandwidth, w.Bandwidth)
		same("freq", g.Freq, w.Freq)
		same("round deadline", []uint64{g.RoundDeadline}, []uint64{w.RoundDeadline})
		same("objective", []uint64{g.Objective}, []uint64{w.Objective})
	}
}
