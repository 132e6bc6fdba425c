package health

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/serve"
)

// trackedSource fabricates per-cell metrics but tracks the REAL membership
// of a router, so advisor victims are live cells and membership alerts
// reflect actual adds/drains.
type trackedSource struct {
	r *cluster.Router
	// breach switches every live cell between breaching and idle metrics.
	breach bool
	reqs   int64
}

func (s *trackedSource) Sample() []CellSample {
	out := make([]CellSample, 0, 4)
	for _, id := range s.r.CellIDs() {
		cs := CellSample{Cell: id, Requests: s.reqs}
		if s.breach {
			cs.QueueWaitP99 = 0.200
		}
		out = append(out, cs)
	}
	return out
}

// TestAutoscaleDrivesRealControlPlane closes the autoscale loop on
// fabricated samples: sustained breach adds a real cell through
// ctrl.Plane, sustained idle drains one, and both membership changes
// surface as alerts.
func TestAutoscaleDrivesRealControlPlane(t *testing.T) {
	r := cluster.New(cluster.Config{Cells: 2, Cell: serve.Config{Workers: 1}})
	defer r.Close()
	plane := ctrl.New(r, nil)
	src := &trackedSource{r: r, breach: true}
	e := New(Config{
		Source: src,
		// WindowTicks 2 + ClearAfter 1 so the breach rolls out of the
		// window quickly once the source calms down — the idle signal
		// can't start counting while any rule is still tripped.
		WindowTicks: 2,
		Rules:       []Rule{{Name: "qw", Metric: MetricQueueWaitP99, Threshold: 0.050, ClearAfter: 1}},
		BreachAfter: 1,
		Logger:      quietLogger(),
		Advisor: AdvisorConfig{
			MinCells: 2, MaxCells: 3,
			ScaleUpAfter: 1, ScaleDownAfter: 2,
			IdleRPS: 0.5, Cooldown: time.Millisecond,
		},
		Actuator: ctrl.Actuator{Plane: plane},
	})

	ctx := context.Background()
	for i := 0; i < 8 && r.Cells() < 3; i++ {
		src.reqs += 50 // keep traffic flowing so breach ticks count
		e.Tick(ctx)
	}
	if r.Cells() != 3 {
		t.Fatalf("sustained breach never added a real cell: %d cells", r.Cells())
	}
	if s := plane.Stats(); s.AutoscaleAdds != 1 {
		t.Fatalf("ctrl autoscale add counter %d, want 1", s.AutoscaleAdds)
	}

	// Calm down: constant counters + clean quantiles read as idle, and the
	// advisor drains back inside the bounds.
	src.breach = false
	time.Sleep(2 * time.Millisecond) // clear the cooldown
	for i := 0; i < 12 && r.Cells() > 2; i++ {
		e.Tick(ctx)
		time.Sleep(time.Millisecond)
	}
	if r.Cells() != 2 {
		t.Fatalf("sustained idle never drained: %d cells", r.Cells())
	}
	if s := plane.Stats(); s.AutoscaleDrains != 1 {
		t.Fatalf("ctrl autoscale drain counter %d, want 1", s.AutoscaleDrains)
	}
	// One more observation so the drained cell's departure lands in the
	// ring (membership is noticed on the tick after the drain).
	e.Tick(ctx)

	// Every membership change the autoscaler made is visible in the ring.
	var joins, leaves int
	for _, a := range e.Alerts() {
		if a.Kind == KindMembership {
			if strings.HasSuffix(a.Message, "joined") {
				joins++
			} else {
				leaves++
			}
		}
	}
	// 2 initial joins + 1 autoscale join; 1 autoscale leave.
	if joins != 3 || leaves != 1 {
		t.Fatalf("membership alerts: %d joins / %d leaves, want 3 / 1", joins, leaves)
	}
}

// TestAutoscaleWaveOverRouterSource is the traffic wave with real
// signals: a RouterSource samples a cluster whose one-worker cell queues
// cache-defeating solves behind a gated solver, so the queue waits the
// rules judge are real. Ticks are called by hand. The sustained
// queue-wait breach adds a cell through ctrl.Actuator, and idle then
// drains the cluster back to MinCells.
func TestAutoscaleWaveOverRouterSource(t *testing.T) {
	gate := make(chan struct{})
	gated := func(s *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
		<-gate
		return core.Optimize(s, w, o)
	}
	r := cluster.New(cluster.Config{Cells: 1, Cell: serve.Config{Workers: 1, Solver: gated}})
	defer r.Close()
	plane := ctrl.New(r, nil)
	plane.SetLogger(quietLogger())
	// The defaults minus the cache-hit floor: the wave's traffic defeats
	// the cache by design, and queue pressure is what should scale it.
	var rules []Rule
	for _, rule := range DefaultRules() {
		if rule.Metric != MetricCacheHitRate {
			rules = append(rules, rule)
		}
	}
	e := New(Config{
		Source:      RouterSource(r),
		Rules:       rules,
		WindowTicks: 4,
		BreachAfter: 2,
		ClearAfter:  1,
		Logger:      quietLogger(),
		Advisor: AdvisorConfig{
			MinCells: 1, MaxCells: 2,
			ScaleUpAfter: 2, ScaleDownAfter: 3,
			Cooldown: time.Millisecond,
		},
		Actuator: ctrl.Actuator{Plane: plane},
	})

	sc := experiments.Default()
	sc.N = 5
	base, err := sc.Build(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	ctx := context.Background()
	// burst queues depth fresh instances behind cell 0's one worker, holds
	// them there for hold, then lets them all solve.
	burst := func(depth int, hold time.Duration) {
		var wg sync.WaitGroup
		for k := 0; k < depth; k++ {
			sys := *base
			sys.Devices = append([]fl.Device(nil), base.Devices...)
			for i := range sys.Devices {
				sys.Devices[i].Gain *= math.Exp(0.3 * rng.NormFloat64())
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				req := serve.Request{System: &sys, Weights: fl.Weights{W1: 0.5, W2: 0.5}}
				if _, _, err := r.Solve(ctx, 0, fmt.Sprintf("wave-%d", k), req); err != nil {
					t.Error(err)
				}
			}(k)
		}
		for r.Cell(0).Stats().QueueLen < depth-1 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(hold)
		for k := 0; k < depth; k++ {
			gate <- struct{}{}
		}
		wg.Wait()
	}

	e.Tick(ctx) // seeds cell 0's window
	for i := 0; i < 6 && r.Cells() == 1; i++ {
		burst(4, 80*time.Millisecond)
		e.Tick(ctx)
	}
	if r.Cells() != 2 {
		t.Fatalf("sustained queue-wait breach never added a cell: %d cells", r.Cells())
	}
	if s := plane.Stats(); s.AutoscaleAdds != 1 {
		t.Fatalf("ctrl autoscale adds %d, want 1", s.AutoscaleAdds)
	}

	// Silence: the burst buckets roll out of the windows, the rule clears,
	// and sustained idleness drains back down.
	for i := 0; i < 20 && r.Cells() > 1; i++ {
		time.Sleep(2 * time.Millisecond) // past the cooldown
		e.Tick(ctx)
	}
	if r.Cells() != 1 {
		t.Fatalf("idle cluster never drained back to MinCells: %d cells", r.Cells())
	}
	if s := plane.Stats(); s.AutoscaleDrains != 1 {
		t.Fatalf("ctrl autoscale drains %d, want 1", s.AutoscaleDrains)
	}
	var added, drained bool
	for _, a := range e.Alerts() {
		if a.Kind == KindAutoscale {
			added = added || strings.Contains(a.Message, "added cell")
			drained = drained || strings.Contains(a.Message, "drained cell")
		}
	}
	if !added || !drained {
		t.Fatalf("alert ring misses the autoscale actions: %+v", e.Alerts())
	}
}

// TestRouterSourceSamplesRealTraffic runs real solves through a router and
// checks the sampled windows carry coherent, non-negative aggregates.
func TestRouterSourceSamplesRealTraffic(t *testing.T) {
	r := cluster.New(cluster.Config{Cells: 2, Cell: serve.Config{Workers: 2}})
	defer r.Close()

	sc := experiments.Default()
	sc.N = 5
	sys, err := sc.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Source: RouterSource(r), Logger: quietLogger()})
	now := time.Unix(1000, 0)
	e.Observe(now, e.cfg.Source.Sample()) // seed windows

	for i := 0; i < 6; i++ {
		dev := "health-dev"
		if i%2 == 1 {
			dev = "health-dev-2"
		}
		if _, _, err := r.Solve(context.Background(), cluster.CellAuto, dev,
			serve.Request{System: sys, Weights: fl.Weights{W1: 0.5, W2: 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	e.Observe(now.Add(time.Second), e.cfg.Source.Sample())

	h := e.Health()
	if len(h.Cells) != 2 {
		t.Fatalf("sampled %d cells, want 2", len(h.Cells))
	}
	var total int64
	for _, c := range h.Cells {
		w := c.Window
		if w.Requests < 0 || w.ErrorRate < 0 || w.CacheHitRate < 0 || w.RequestRate < 0 {
			t.Fatalf("negative window aggregate: %+v", w)
		}
		if w.QueueWaitP50 < 0 || w.SolveP99 < 0 {
			t.Fatalf("negative latency aggregate: %+v", w)
		}
		total += w.Requests
	}
	if total != 6 {
		t.Fatalf("window request total %d, want the 6 solves", total)
	}
}
