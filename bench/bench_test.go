package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// A request that stalls the server must charge its wait to every request
// scheduled behind it, and the lag report must show the stall, while the
// generator's own lateness stays small.
func TestStallIsChargedToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	const stalled = 200 // the op whose request stalls
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stalled+1 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, `{"device_id":"d","from_cell":0,"to_cell":1}`)
	}))
	defer ts.Close()

	h := &repro.HandoffRequestJSON{DeviceID: "d", FromCell: 0, ToCell: 1}
	var plan []op
	for _, due := range schedule(rand.New(rand.NewSource(1)), 500, 2) {
		plan = append(plan, op{due: due, kind: opHandoff, path: "/", contentType: "application/json",
			body: mustJSON(h), handoff: h})
	}
	recs := drive(ts.URL, [][]op{plan}, 0, nil)
	rs := recs[0]
	if len(rs) != len(plan) {
		t.Fatalf("%d records for %d ops", len(rs), len(plan))
	}
	stallEnd := rs[stalled].done
	if rs[stalled].lat < stall {
		t.Fatalf("stalled op latency %v, want >= %v", rs[stalled].lat, stall)
	}
	queued := 0
	for i := stalled + 1; i < len(rs) && plan[i].due < stallEnd; i++ {
		queued++
		if rs[i].err != nil {
			t.Fatalf("op %d: %v", i, rs[i].err)
		}
		// Due during the stall, it could not be sent before the stalled
		// answer arrived: its latency must count the wait from its due time.
		if want := stallEnd - plan[i].due; rs[i].lat < want {
			t.Errorf("op %d due %v: latency %v, want >= %v", i, plan[i].due, rs[i].lat, want)
		}
	}
	if queued < 50 {
		t.Fatalf("only %d ops were due during the stall", queued)
	}
	ptrs := make([]*rec, len(rs))
	for i := range rs {
		ptrs[i] = &rs[i]
	}
	lg := loadgenStats(ptrs, 2*time.Second)
	if lg.lagP99 < 100 {
		t.Errorf("lag p99 %.1f ms does not show the %v stall", lg.lagP99, stall)
	}
	if lg.genLagP99 > float64(lagLimit)/float64(time.Millisecond) {
		t.Errorf("generator lag p99 %.2f ms: the generator itself fell behind", lg.genLagP99)
	}
	if lg.backlog != 0 {
		t.Errorf("backlog %d after a stall the generator recovered from", lg.backlog)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(rand.New(rand.NewSource(1)), 300, 2)
	b := schedule(rand.New(rand.NewSource(1)), 300, 2)
	c := schedule(rand.New(rand.NewSource(2)), 300, 2)
	if len(a) != 600 {
		t.Fatalf("%d arrivals, want 600", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	for i, d := range a {
		if d < 0 || d >= 2*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v: not ascending within the window", i, d)
		}
	}

	// The whole generated plan, bodies included, follows the seed too.
	plan := func(seed int64) [][]op {
		sp, err := newDriftSpec(seed, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		return sp.plan(nil)
	}
	p1, p2, p3 := plan(1), plan(1), plan(2)
	same := func(x, y [][]op) bool {
		for s := range x {
			for i := range x[s] {
				if x[s][i].due != y[s][i].due || !bytes.Equal(x[s][i].body, y[s][i].body) {
					return false
				}
			}
		}
		return true
	}
	if !same(p1, p2) {
		t.Error("same seed, different plans")
	}
	if same(p1, p3) {
		t.Error("different seeds, same plan")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{9999, 0.999, 9990, false},
		{10000, 0.999, 9990, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

// runBench runs the command in-process and returns its exit code, output
// and decoded result line.
func runBench(t *testing.T, solver solveFunc, args ...string) (int, string, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out, solver)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Fatalf("result line lacks %q: %s", k, lines[len(lines)-1])
		}
	}
	if len(res) != 4 {
		t.Fatalf("result line has extra keys: %s", lines[len(lines)-1])
	}
	return code, out.String(), res
}

// The smoke run drives every stack through every check and prints every
// gated metric of every workload.
func TestSmoke(t *testing.T) {
	code, out, res := runBench(t, nil, "-smoke")
	if code != 0 || res["correct"] != true || res["failed"] != float64(0) {
		t.Fatalf("smoke run failed (exit %d):\n%s", code, out)
	}
	metrics := res["metrics"].(map[string]any)
	for _, w := range workloads {
		for _, d := range gatedMetrics() {
			m, ok := metrics[w.name+"."+d.name].(map[string]any)
			if !ok {
				t.Errorf("%s: no %s", w.name, d.name)
				continue
			}
			if m["unit"] != d.unit {
				t.Errorf("%s.%s: unit %v, want %s", w.name, d.name, m["unit"], d.unit)
			}
			if v, _ := m["value"].(float64); !(v > 0) {
				t.Errorf("%s.%s = %v, want > 0", w.name, d.name, m["value"])
			}
		}
	}
}

// The traced smoke run prints every per-layer metric, on the cluster stack
// with handoffs and on the stream stack.
func TestSmokeTraced(t *testing.T) {
	for _, w := range []string{"cluster-hot", "stream-delta"} {
		code, out, res := runBench(t, nil, "-smoke", "-trace", "1", "-workload", w)
		if code != 0 || res["correct"] != true {
			t.Fatalf("%s: traced smoke run failed (exit %d):\n%s", w, code, out)
		}
		metrics := res["metrics"].(map[string]any)
		if len(metrics) != len(layerMetrics) {
			t.Errorf("%s: %d per-layer metrics, want %d", w, len(metrics), len(layerMetrics))
		}
		for _, d := range layerMetrics {
			if _, ok := metrics[d.name]; !ok {
				t.Errorf("%s: no %s", w, d.name)
			}
		}
		if v := metrics["core.calls"].(map[string]any)["value"].(float64); v == 0 {
			t.Errorf("%s: the solver probe saw no calls", w)
		}
	}
}

// Wrong answers must fail the run: an out-of-box power, a feasible but
// poor allocation, and a deadline-mode allocation that misses the deadline.
func TestWrongAnswersFailTheRun(t *testing.T) {
	optimize := func(edit func(s *repro.System, a *repro.Allocation)) solveFunc {
		return func(s *repro.System, w repro.Weights, o repro.Options) (repro.Result, error) {
			res, err := repro.Optimize(s, w, o)
			if err == nil {
				a := res.Allocation.Clone()
				edit(s, &a)
				res.Allocation = a
			}
			return res, err
		}
	}
	for _, tc := range []struct {
		name, workload string
		solver         solveFunc
		want           string
	}{
		{"power outside its box", "serve-drift", optimize(func(s *repro.System, a *repro.Allocation) {
			a.Power[0] = 2 * s.Devices[0].PMax
		}), "power"},
		{"feasible but poor", "serve-drift", optimize(func(s *repro.System, a *repro.Allocation) {
			*a = s.EqualSplitAllocation(1/float64(s.N()), s.Devices[0].PMax, s.Devices[0].FMax/10)
		}), "objective check"},
		{"deadline missed", "deadline-batch", func(s *repro.System, _ repro.Weights, _ repro.Options) (repro.Result, error) {
			return repro.Result{Allocation: s.EqualSplitAllocation(1/float64(s.N()), s.Devices[0].PMin, s.Devices[0].FMin)}, nil
		}, "deadline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, res := runBench(t, tc.solver, "-smoke", "-workload", tc.workload)
			if code == 0 || res["correct"] != false {
				t.Fatalf("exit %d, correct %v; want a failed run:\n%s", code, res["correct"], out)
			}
			if !strings.Contains(out, "CHECK FAILED") || !strings.Contains(out, tc.want) {
				t.Errorf("output does not report the %q failure:\n%s", tc.want, out)
			}
		})
	}
}

// A run whose answers all pass but that leaves a backlog behind its
// schedule is invalid: it is measured again, and the command fails when it
// stays invalid.
func TestInvalidRunFails(t *testing.T) {
	sp, err := newDriftSpec(1, 1, 300*0.05)
	if err != nil {
		t.Fatal(err)
	}
	base := make(map[float64]bool) // the primed topologies, by first gain
	for _, o := range sp.(*driftSpec).base {
		base[o.inst[0].sys.Devices[0].Gain] = true
	}
	slow := func(s *repro.System, w repro.Weights, o repro.Options) (repro.Result, error) {
		if !base[s.Devices[0].Gain] {
			time.Sleep(600 * time.Millisecond)
		}
		return repro.Optimize(s, w, o)
	}
	code, out, res := runBench(t, slow, "-smoke", "-workload", "serve-drift", "-seed", "1")
	if code == 0 {
		t.Fatalf("exit 0 for a run that stayed invalid:\n%s", out)
	}
	if res["correct"] != true {
		t.Errorf("correct = %v: every answer was right, only the timing was invalid", res["correct"])
	}
	if got := strings.Count(out, "INVALID run"); got != 1+invalidRetries {
		t.Errorf("%d invalid windows reported, want %d:\n%s", got, 1+invalidRetries, out)
	}
}

func TestDeltaCheckRejectsStaleSeq(t *testing.T) {
	sys, err := newSystem(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := &op{kind: opDelta, path: "/v1/stream/s/deltas", seq: 5, inst: []*instance{{sys: sys, w: weights}}}
	stale := fmt.Sprintf(`{"seq":5,"ok":false,"error":"seq 5 does not advance last applied 7: %v"}`, repro.StreamErrStaleSeq)
	if _, err := check(o, http.StatusOK, []byte(stale)); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale-seq update passed the check: %v", err)
	}
	if _, err := check(o, http.StatusConflict, []byte(`{}`)); err == nil {
		t.Error("a non-200 answer passed the check")
	}
}

func TestCompareFailsBeyondBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	pinned := baseline{Workloads: map[string]map[string]float64{
		"w": {"latency_p50_ms": 1.0, "throughput_rps": 100, "objective_rel": 1.0, "latency_p999_ms": 5},
	}}
	data, err := json.Marshal(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		now  map[string]float64
		ok   bool
	}{
		{"unchanged", map[string]float64{"latency_p50_ms": 1.0, "throughput_rps": 100, "objective_rel": 1.0}, true},
		{"better", map[string]float64{"latency_p50_ms": 0.5, "throughput_rps": 150, "objective_rel": 0.99}, true},
		{"within bounds", map[string]float64{"latency_p50_ms": 1 + 0.9*timeBound, "throughput_rps": 100 * (1 - 0.9*timeBound), "objective_rel": 1.00009}, true},
		{"slower", map[string]float64{"latency_p50_ms": 1 + 1.1*timeBound, "throughput_rps": 100, "objective_rel": 1.0}, false},
		{"fewer per second", map[string]float64{"latency_p50_ms": 1.0, "throughput_rps": 100 * (1 - 1.1*timeBound), "objective_rel": 1.0}, false},
		{"worse answers", map[string]float64{"latency_p50_ms": 1.0, "throughput_rps": 100, "objective_rel": 1.0002}, false},
		{"worse p999, never gated", map[string]float64{"latency_p50_ms": 1.0, "throughput_rps": 100, "objective_rel": 1.0, "latency_p999_ms": 10}, true},
	} {
		var out bytes.Buffer
		ok, err := compareBaseline(&out, path, map[string]map[string]float64{"w": tc.now})
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: within = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this command reports, with the same units, directions and
// bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: listed %+v, defined %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, %d defined", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			m := listed[i]
			better := "higher"
			if d.lower {
				better = "lower"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != d.bound) {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, gatedMetrics(), true)
	same("per_layer", b.PerLayer, layerMetrics, false)
}
