package ctrl

// Seeded schedule tests: deterministic simulation testing of the control
// plane, scaled down from FoundationDB's (Zhou et al., SIGMOD 2021). One
// driver draws solves, exact repeats, handoffs, stream deltas, cell adds,
// drains, crashes and rebalances from a seed and runs them against a live
// in-process router, stream manager and plane, checking the cluster's
// invariants after every operation. The schedule is a function of the
// seed, not of host speed, so a failure replays exactly.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/serve"
	"repro/internal/stream"
)

// The operation kinds a schedule draws from.
const (
	opSolve     = "solve"
	opRepeat    = "repeat"
	opHandoff   = "handoff"
	opDelta     = "delta"
	opAdd       = "add"
	opDrain     = "drain"
	opCrash     = "crash"
	opRebalance = "rebalance"
)

// opWeights is the draw distribution over operation kinds (weights sum
// to 100).
var opWeights = []struct {
	op     string
	weight int
}{
	{opSolve, 30}, {opRepeat, 20}, {opHandoff, 10}, {opDelta, 20},
	{opAdd, 5}, {opDrain, 5}, {opCrash, 5}, {opRebalance, 5},
}

// Membership bounds of a schedule: drains and crashes below minSchedCells
// turn into adds, adds at maxSchedCells into drains.
const (
	minSchedCells = 2
	maxSchedCells = 5
)

// quiet discards the plane's membership-change logs.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// logEntry is one line of a schedule's operation log. Obj holds the bits
// of the answer's objective, so replays compare bit for bit.
type logEntry struct {
	Op     string
	Device string
	Cell   int
	Source serve.Source
	Obj    uint64
}

// schedDevice is one device solving through the router.
type schedDevice struct {
	id       string
	base     *fl.System
	deadline bool
	last     *serve.Request // the last answered request; nil before any
}

// schedSession is one open stream session and its client-side seq.
type schedSession struct {
	dev  string
	sess *stream.Session
	seq  uint64
}

type schedule struct {
	t      *testing.T
	rng    *rand.Rand
	r      *cluster.Router
	m      *stream.Manager
	p      *Plane
	devs   []*schedDevice
	sess   []*schedSession
	log    []logEntry
	counts map[string]int
}

// schedRequest builds a request for sys: weighted mode, or deadline mode
// at 1.5 times the instance's minimum completion time (always feasible).
func schedRequest(sys *fl.System, deadline bool) (serve.Request, error) {
	req := serve.Request{System: sys, Weights: balanced()}
	if deadline {
		mt, err := core.SolveMinTime(sys)
		if err != nil {
			return req, err
		}
		req.Options = core.Options{Mode: core.ModeDeadline, TotalDeadline: 1.5 * mt.RoundDeadline * sys.GlobalRounds}
	}
	return req, nil
}

// requireFeasible checks an answer against its own request at 1e-6.
func requireFeasible(t testing.TB, req serve.Request, resp serve.Response) {
	t.Helper()
	if err := feasible(req, resp); err != nil {
		t.Fatal(err)
	}
}

func feasible(req serve.Request, resp serve.Response) error {
	a := resp.Result.Allocation
	var err error
	if req.Options.Mode == core.ModeDeadline {
		err = req.System.ValidateDeadline(a, req.Options.TotalDeadline/req.System.GlobalRounds, 1e-6)
	} else {
		err = req.System.Validate(a, 1e-6)
	}
	if err != nil {
		return fmt.Errorf("%s answer infeasible for its own request: %w", resp.Source, err)
	}
	return nil
}

// drift returns a copy of base with every gain scaled by exp(sigma*z).
func drift(base *fl.System, sigma float64, rng *rand.Rand) *fl.System {
	sys := *base
	sys.Devices = append([]fl.Device(nil), base.Devices...)
	for i := range sys.Devices {
		sys.Devices[i].Gain *= math.Exp(sigma * rng.NormFloat64())
	}
	return &sys
}

// newSchedule builds a 3-cell stack with 8 devices (every fourth in
// deadline mode) and 3 open stream sessions.
func newSchedule(t *testing.T, seed int64) *schedule {
	r, m, p := testStack(t, 3)
	p.SetLogger(quiet)
	s := &schedule{t: t, rng: rand.New(rand.NewSource(seed)), r: r, m: m, p: p, counts: map[string]int{}}
	for d := 0; d < 8; d++ {
		s.devs = append(s.devs, &schedDevice{
			id:       fmt.Sprintf("dev-%d", d),
			base:     testSystem(t, 4, seed*100+int64(d)),
			deadline: d%4 == 3,
		})
	}
	for k := 0; k < 3; k++ {
		dev := fmt.Sprintf("sess-%d", k)
		req := serve.Request{System: testSystem(t, 4, seed*100+50+int64(k)), Weights: balanced()}
		sess, upd, err := m.Open(context.Background(), dev, req)
		if err != nil {
			t.Fatal(err)
		}
		requireFeasible(t, req, upd.Response)
		s.sess = append(s.sess, &schedSession{dev: dev, sess: sess})
		s.record("open", dev, upd.Cell, upd.Response)
	}
	return s
}

func (s *schedule) record(op, dev string, cell int, resp serve.Response) {
	s.log = append(s.log, logEntry{Op: op, Device: dev, Cell: cell, Source: resp.Source, Obj: math.Float64bits(resp.Result.Objective)})
}

// solve serves req for the device through the router and checks the
// answer lands on the device's route and is feasible for req.
func (s *schedule) solve(op string, d *schedDevice, req serve.Request) serve.Response {
	s.t.Helper()
	resp, cell, err := s.r.Solve(context.Background(), cluster.CellAuto, d.id, req)
	if err != nil {
		s.t.Fatalf("%s %s: %v", op, d.id, err)
	}
	if route := s.r.Route(d.id); cell != route {
		s.t.Fatalf("%s %s served by cell %d, routed to %d", op, d.id, cell, route)
	}
	requireFeasible(s.t, req, resp)
	d.last = &req
	s.record(op, d.id, cell, resp)
	return resp
}

// replay repeats the device's last request and requires the given source.
func (s *schedule) replay(op string, d *schedDevice, want serve.Source) {
	s.t.Helper()
	if got := s.solve(op, d, *d.last).Source; got != want {
		s.t.Fatalf("%s %s: source %q, want %q", op, d.id, got, want)
	}
}

// answered lists the devices that have been served at least once.
func (s *schedule) answered() []*schedDevice {
	var out []*schedDevice
	for _, d := range s.devs {
		if d.last != nil {
			out = append(out, d)
		}
	}
	return out
}

// pickOp draws the next operation kind, bending membership operations
// that would leave [minSchedCells, maxSchedCells].
func (s *schedule) pickOp() string {
	x := s.rng.Intn(100)
	op := opWeights[len(opWeights)-1].op
	for _, w := range opWeights {
		if x < w.weight {
			op = w.op
			break
		}
		x -= w.weight
	}
	switch cells := s.r.Cells(); {
	case (op == opDrain || op == opCrash) && cells <= minSchedCells:
		op = opAdd
	case op == opAdd && cells >= maxSchedCells:
		op = opDrain
	case (op == opRepeat || op == opHandoff) && len(s.answered()) == 0:
		op = opSolve
	}
	return op
}

func (s *schedule) randomCell() int {
	ids := s.r.CellIDs()
	return ids[s.rng.Intn(len(ids))]
}

// step runs one operation.
func (s *schedule) step(op string) {
	s.t.Helper()
	ctx := context.Background()
	s.counts[op]++
	switch op {
	case opSolve:
		d := s.devs[s.rng.Intn(len(s.devs))]
		// Every drift is a new exact instance (a cold solve); a quarter
		// stay close to the base.
		sigma := 0.3
		if s.rng.Intn(4) == 0 {
			sigma = 0.01
		}
		req, err := schedRequest(drift(d.base, sigma, s.rng), d.deadline)
		if err != nil {
			s.t.Fatal(err)
		}
		s.solve(op, d, req)

	case opRepeat:
		ds := s.answered()
		s.replay(op, ds[s.rng.Intn(len(ds))], serve.SourceCache)

	case opHandoff:
		ds := s.answered()
		d := ds[s.rng.Intn(len(ds))]
		from := s.r.Route(d.id)
		var others []int
		for _, c := range s.r.CellIDs() {
			if c != from {
				others = append(others, c)
			}
		}
		to := others[s.rng.Intn(len(others))]
		rep, err := s.r.Handoff(ctx, d.id, from, to)
		if err != nil {
			s.t.Fatalf("handoff %s %d->%d: %v", d.id, from, to, err)
		}
		if rep.MigratedResults == 0 {
			s.t.Fatalf("handoff %s %d->%d carried no cached result: %+v", d.id, from, to, rep)
		}
		s.log = append(s.log, logEntry{Op: op, Device: d.id, Cell: to})

	case opDelta:
		ss := s.sess[s.rng.Intn(len(s.sess))]
		sys := ss.sess.SystemSnapshot()
		gains := map[int]float64{}
		for k := 1 + s.rng.Intn(2); len(gains) < k; {
			i := s.rng.Intn(sys.N())
			gains[i] = sys.Devices[i].Gain * math.Exp(0.2*s.rng.NormFloat64())
		}
		seq := ss.seq + 1
		upd, err := s.m.Apply(ctx, ss.sess.ID(), stream.Delta{Seq: seq, Gains: gains})
		if err != nil { // ErrStaleSeq included: a delta must never see it
			s.t.Fatalf("delta %s seq %d: %v", ss.dev, seq, err)
		}
		ss.seq = seq
		if upd.Seq != seq || ss.sess.Seq() != seq {
			s.t.Fatalf("delta %s: update seq %d, session seq %d, want %d", ss.dev, upd.Seq, ss.sess.Seq(), seq)
		}
		if route := s.r.Route(ss.dev); upd.Cell != route {
			s.t.Fatalf("delta %s served by cell %d, routed to %d", ss.dev, upd.Cell, route)
		}
		requireFeasible(s.t, serve.Request{System: ss.sess.SystemSnapshot(), Weights: balanced()}, upd.Response)
		s.record(op, ss.dev, upd.Cell, upd.Response)

	case opAdd:
		rep, err := s.p.AddCell(ctx)
		if err != nil {
			s.t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Cells, s.r.CellIDs()) {
			s.t.Fatalf("add report cells %v, membership %v", rep.Cells, s.r.CellIDs())
		}
		s.log = append(s.log, logEntry{Op: op, Cell: rep.Cell})

	case opDrain:
		victim := s.randomCell()
		var moving []*schedDevice
		for _, d := range s.answered() {
			if s.r.Route(d.id) == victim {
				moving = append(moving, d)
			}
		}
		if _, err := s.p.DrainCell(ctx, victim); err != nil {
			s.t.Fatal(err)
		}
		s.log = append(s.log, logEntry{Op: op, Cell: victim})
		// A drained cell's cached devices hit on their new cell.
		for _, d := range moving {
			s.replay("drain/replay", d, serve.SourceCache)
		}

	case opCrash:
		victim := s.randomCell()
		var lost, kept []*schedDevice
		for _, d := range s.answered() {
			if s.r.Route(d.id) == victim {
				lost = append(lost, d)
			} else {
				kept = append(kept, d)
			}
		}
		if _, err := s.p.CrashCell(ctx, victim); err != nil {
			s.t.Fatal(err)
		}
		s.log = append(s.log, logEntry{Op: op, Cell: victim})
		// The crashed cell's devices solve cold once, then hit; every
		// other device keeps its hit.
		for _, d := range lost {
			s.replay("crash/cold", d, serve.SourceCold)
			s.replay("crash/replay", d, serve.SourceCache)
		}
		for _, d := range kept {
			s.replay("crash/kept", d, serve.SourceCache)
		}

	case opRebalance:
		rep, err := s.p.Rebalance(ctx)
		if err != nil {
			s.t.Fatal(err)
		}
		if plan := s.p.RebalancePlan(); plan.Moves != 0 {
			s.t.Fatalf("rebalance left %d moves planned", plan.Moves)
		}
		s.log = append(s.log, logEntry{Op: op, Cell: -1, Obj: uint64(rep.Handoff.Devices)})
	}
	s.checkRoutes(op)
}

// checkRoutes asserts every tracked device (served devices and session
// devices) routes to exactly one live cell: its Route is a member, and
// exactly one live cell lists it in DevicesOn — the view drains plan from.
func (s *schedule) checkRoutes(op string) {
	s.t.Helper()
	live := s.r.CellIDs()
	member := map[int]bool{}
	owners := map[string]int{}
	for _, c := range live {
		member[c] = true
		for _, dev := range s.r.DevicesOn(c) {
			owners[dev]++
		}
	}
	var tracked []string
	for _, d := range s.answered() {
		tracked = append(tracked, d.id)
	}
	for _, ss := range s.sess {
		tracked = append(tracked, ss.dev)
	}
	for _, dev := range tracked {
		if c := s.r.Route(dev); !member[c] {
			s.t.Fatalf("after %s: device %s routes to cell %d, not in %v", op, dev, c, live)
		}
		if owners[dev] != 1 {
			s.t.Fatalf("after %s: device %s is on %d live cells' device lists, want 1", op, dev, owners[dev])
		}
	}
}

// runSchedule runs ops operations drawn from seed and returns the log and
// the per-kind counts.
func runSchedule(t *testing.T, seed int64, ops int) ([]logEntry, map[string]int) {
	s := newSchedule(t, seed)
	for i := 0; i < ops; i++ {
		s.step(s.pickOp())
	}
	return s.log, s.counts
}

// TestScheduleDeterministic runs 8 seeded schedules of 200 operations.
// Every operation kind runs at least once per seed, the invariants hold
// after every operation, and a second run of the same seed produces a
// bit-identical operation log.
func TestScheduleDeterministic(t *testing.T) {
	const ops = 200
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first, counts := runSchedule(t, seed, ops)
			for _, w := range opWeights {
				if counts[w.op] == 0 {
					t.Fatalf("seed %d never ran %q: %v", seed, w.op, counts)
				}
			}
			again, _ := runSchedule(t, seed, ops)
			if len(first) != len(again) {
				t.Fatalf("replay logged %d entries, first run %d", len(again), len(first))
			}
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("replay diverges at entry %d: %+v vs %+v", i, again[i], first[i])
				}
			}
		})
	}
}

// TestScheduleConcurrentChurn races device-routed traffic and stream
// deltas against add/drain and add/crash cycles. Membership operation i
// fires once i*every requests have completed, and no request may start
// more than every/2 tickets past an operation's trigger before that
// operation is done, so every operation races live traffic on any host
// speed. No request may fail, and every answer must be feasible for its
// own request.
func TestScheduleConcurrentChurn(t *testing.T) {
	r, m, p := testStack(t, 3)
	p.SetLogger(quiet)
	const (
		workers   = 4
		perWorker = 150
		every     = 50
	)
	plan := []string{opAdd, opDrain, opAdd, opDrain, opAdd, opCrash, opAdd, opDrain, opAdd, opCrash}

	var (
		issued, completed, failed atomic.Int64
		progress                  = make(chan struct{}, 1)
		mu                        sync.Mutex
		cond                      = sync.NewCond(&mu)
		opsDone                   int
	)
	// gate blocks ticket k until every operation whose trigger sits at
	// least every/2 tickets before it has run.
	gate := func(k int64) {
		need := 0
		if k >= every/2 {
			need = min(int((k-every/2)/every), len(plan))
		}
		mu.Lock()
		for opsDone < need {
			cond.Wait()
		}
		mu.Unlock()
	}
	finishOps := func(n int) {
		mu.Lock()
		opsDone = n
		cond.Broadcast()
		mu.Unlock()
	}

	driverErr := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(99))
		defer finishOps(len(plan))
		for i, op := range plan {
			for completed.Load() < int64((i+1)*every) {
				<-progress
			}
			ids := r.CellIDs()
			victim := ids[rng.Intn(len(ids))]
			var err error
			switch op {
			case opAdd:
				_, err = p.AddCell(context.Background())
			case opDrain:
				_, err = p.DrainCell(context.Background(), victim)
			case opCrash:
				_, err = p.CrashCell(context.Background(), victim)
			}
			if err != nil {
				driverErr <- fmt.Errorf("%s (op %d): %w", op, i, err)
				return
			}
			finishOps(i + 1)
		}
		driverErr <- nil
	}()

	trafficDone := make(chan struct{})
	var streams sync.WaitGroup
	var deltas atomic.Int64
	for k := 0; k < 2; k++ {
		dev := fmt.Sprintf("conc-sess-%d", k)
		sess, _, err := m.Open(context.Background(), dev, serve.Request{System: testSystem(t, 4, int64(300+k)), Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		streams.Add(1)
		go func(k int) {
			defer streams.Done()
			rng := rand.New(rand.NewSource(int64(400 + k)))
			for seq := uint64(1); ; seq++ {
				select {
				case <-trafficDone:
					return
				default:
				}
				sys := sess.SystemSnapshot()
				i := rng.Intn(sys.N())
				gains := map[int]float64{i: sys.Devices[i].Gain * math.Exp(0.2*rng.NormFloat64())}
				upd, err := m.Apply(context.Background(), sess.ID(), stream.Delta{Seq: seq, Gains: gains})
				if err != nil {
					t.Errorf("%s delta seq %d: %v", dev, seq, err)
					return
				}
				if err := feasible(serve.Request{System: sess.SystemSnapshot(), Weights: balanced()}, upd.Response); err != nil {
					t.Errorf("%s delta seq %d: %v", dev, seq, err)
					return
				}
				deltas.Add(1)
			}
		}(k)
	}

	var traffic sync.WaitGroup
	for w := 0; w < workers; w++ {
		var mine []*schedDevice
		for d := w; d < 12; d += workers {
			mine = append(mine, &schedDevice{id: fmt.Sprintf("conc-%d", d), base: testSystem(t, 4, int64(200+d)), deadline: d%4 == 3})
		}
		traffic.Add(1)
		go func(w int, mine []*schedDevice) {
			defer traffic.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for k := 0; k < perWorker; k++ {
				gate(issued.Add(1) - 1)
				d := mine[rng.Intn(len(mine))]
				var req serve.Request
				var err error
				if d.last != nil && rng.Float64() < 0.3 {
					req = *d.last
				} else {
					req, err = schedRequest(drift(d.base, 0.3, rng), d.deadline)
				}
				if err == nil {
					var resp serve.Response
					if resp, _, err = r.Solve(context.Background(), cluster.CellAuto, d.id, req); err == nil {
						err = feasible(req, resp)
					}
				}
				if err != nil {
					failed.Add(1)
					t.Errorf("%s: %v", d.id, err)
				} else {
					d.last = &req
				}
				completed.Add(1)
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}(w, mine)
	}
	traffic.Wait()
	close(trafficDone)
	streams.Wait()
	if err := <-driverErr; err != nil {
		t.Fatal(err)
	}

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed", n, workers*perWorker)
	}
	st := p.Stats()
	if st.CellsAdded != 5 || st.Drains != 3 || st.Crashes != 2 || st.CellsRemoved != 5 {
		t.Fatalf("control ops: %d added, %d drained, %d crashed, %d removed; want 5/3/2/5", st.CellsAdded, st.Drains, st.Crashes, st.CellsRemoved)
	}
	if r.Cells() != 3 {
		t.Fatalf("final membership %v, want 3 cells", r.CellIDs())
	}
	if deltas.Load() == 0 {
		t.Fatal("no stream delta ran")
	}
}
