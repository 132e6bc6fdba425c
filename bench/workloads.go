package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"repro"
)

// workload is one traffic mix.
type workload struct {
	name    string
	why     string
	cluster bool    // flcluster stack; flserved otherwise
	rate    float64 // open-loop arrivals per second over all senders; 0 = closed loop
	sloMs   float64 // latency limit of slo_met_share (open loop)
	// newSpec generates the workload's inputs from the seed for a window of
	// seconds at the given arrival rate. Input generation is never timed.
	newSpec func(seed int64, seconds, rate float64) (spec, error)
}

// spec is one run's generated inputs.
type spec interface {
	// prime sends the set-up requests to a fresh stack: each device's or
	// topology's base instance, the session opens, or a warm-up batch.
	prime(st *stack) error
	// plan returns one op list per sender, for the primed stack.
	plan(st *stack) [][]op
}

// The rates are frozen well inside the capacity the full stack showed on a
// 2-vCPU x86-64 host, and low enough that each sender's connection is busy
// well under half the time: queueing behind a busy connection amplifies the
// host's speed swings into the median latency; see README.md.
var workloads = []workload{
	{
		name:    "cluster-hot",
		why:     "flcluster, 1024 devices, 98% exact repeats: HTTP codec, obs middleware, router and cache do the work; handoffs write router state",
		cluster: true, rate: 1500, sloMs: 5, newSpec: newHotSpec,
	},
	{
		name: "serve-drift",
		why:  "flserved, 75% drifted gains (warm, dual-seeded), 20% repeats, 5% cold: the core solve and worker queue dominate; the cache overflows",
		rate: 300, sloMs: 25, newSpec: newDriftSpec,
	},
	{
		name:    "stream-delta",
		why:     "flcluster, 16 NDJSON delta sessions at N=50: incremental fingerprints, session state and warm re-solves per one-gain delta",
		cluster: true, rate: 150, sloMs: 30, newSpec: newStreamSpec,
	},
	{
		name:    "deadline-batch",
		why:     "flserved, closed loop of solve-batch calls of 8 deadline-mode N=50 instances: the deadline solver is all of the work",
		newSpec: newBatchSpec,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// senderCount is the number of load-generating goroutines (and
// connections): one per CPU, at most two.
func senderCount() int { return min(2, runtime.NumCPU()) }

// objectiveSamples bounds the ops scored by the objective check.
const objectiveSamples = 200

// weights is the objective weight pair of every weighted-mode request.
var weights = repro.Weights{W1: 0.5, W2: 0.5}

func newSystem(n int, seed int64) (*repro.System, error) {
	sc := repro.DefaultScenario()
	sc.N = n
	return sc.Build(rand.New(rand.NewSource(seed)))
}

// drifted copies base with every channel gain scaled by exp(sigma*z).
func drifted(base *repro.System, sigma float64, rng *rand.Rand) *repro.System {
	s := *base
	s.Devices = append([]repro.Device(nil), base.Devices...)
	for i := range s.Devices {
		s.Devices[i].Gain *= math.Exp(sigma * rng.NormFloat64())
	}
	return &s
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types hold only finite numbers and strings
	}
	return b
}

func solveRequest(in *instance, deviceID string) repro.SolveRequestJSON {
	req := repro.SolveRequestJSON{System: repro.SystemToJSON(in.sys), DeviceID: deviceID}
	req.Weights.W1, req.Weights.W2 = in.w.W1, in.w.W2
	if in.deadline > 0 {
		req.Mode, req.TotalDeadlineS = "deadline", in.deadline
	}
	return req
}

func solveOp(in *instance, deviceID string) op {
	return op{kind: opSolve, path: "/v1/solve", contentType: "application/json",
		body: mustJSON(solveRequest(in, deviceID)), inst: []*instance{in}}
}

// sampled picks k of n indices at random.
func sampled(rng *rand.Rand, n, k int) []bool {
	out := make([]bool, n)
	for _, i := range rng.Perm(n)[:min(k, n)] {
		out[i] = true
	}
	return out
}

// primeOps sends ops back to back from the senders and fails on the first
// bad answer.
func primeOps(st *stack, ops []op) error {
	plans := make([][]op, senderCount())
	for i, o := range ops {
		plans[i%len(plans)] = append(plans[i%len(plans)], o)
	}
	recs := drive(st.url, plans, time.Hour, nil)
	for _, rs := range recs {
		for _, r := range rs {
			if r.err != nil {
				return fmt.Errorf("priming: %w", r.err)
			}
		}
	}
	return nil
}

// cluster-hot: every device owns one N=15 topology; 98% of solves repeat
// the device's base instance exactly, 2% drift its gains; handoffs move
// devices between cells. Each device is bound to one sender, so its solves
// and handoffs stay in order.
const (
	hotDevices    = 1024
	hotN          = 15
	hotDriftShare = 0.02
	hotSigma      = 0.3
	// hotHandoffs is the handoff rate per solve (7.5/s beside 1500 solves/s).
	hotHandoffs = 0.005
)

type hotSpec struct {
	rng     *rand.Rand
	seconds float64
	rate    float64 // solves per second over all senders
	ids     []string
	base    []op
}

func newHotSpec(seed int64, seconds, rate float64) (spec, error) {
	rng := rand.New(rand.NewSource(seed))
	sp := &hotSpec{rng: rng, seconds: seconds, rate: rate}
	for d := 0; d < hotDevices; d++ {
		sys, err := newSystem(hotN, rng.Int63())
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("dev-%04d", d)
		sp.ids = append(sp.ids, id)
		sp.base = append(sp.base, solveOp(&instance{sys: sys, w: weights}, id))
	}
	return sp, nil
}

func (sp *hotSpec) prime(st *stack) error { return primeOps(st, sp.base) }

func (sp *hotSpec) plan(st *stack) [][]op {
	senders := senderCount()
	cells := st.cl.CellIDs()
	plans := make([][]op, senders)
	for s := range plans {
		rng := rand.New(rand.NewSource(sp.rng.Int63()))
		var mine []int
		cur := make(map[int]int)
		for d := s; d < hotDevices; d += senders {
			mine = append(mine, d)
			cur[d] = st.cl.Route(sp.ids[d])
		}
		solves := sp.rate / float64(senders)
		handoffs := solves * hotHandoffs
		times := schedule(rng, solves+handoffs, sp.seconds)
		pick := sampled(rng, len(times), objectiveSamples/senders)
		for i, t := range times {
			d := mine[rng.Intn(len(mine))]
			if rng.Float64() < handoffs/(solves+handoffs) {
				to := cells[rng.Intn(len(cells)-1)]
				if to == cur[d] {
					to = cells[len(cells)-1]
				}
				h := &repro.HandoffRequestJSON{DeviceID: sp.ids[d], FromCell: cur[d], ToCell: to}
				cur[d] = to
				plans[s] = append(plans[s], op{due: t, kind: opHandoff, path: "/v1/handoff",
					contentType: "application/json", body: mustJSON(h), handoff: h})
				continue
			}
			o := sp.base[d]
			if rng.Float64() < hotDriftShare {
				o = solveOp(&instance{sys: drifted(o.inst[0].sys, hotSigma, rng), w: weights}, sp.ids[d])
			}
			o.due, o.sampled = t, pick[i]
			plans[s] = append(plans[s], o)
		}
	}
	return plans
}

// serve-drift: 64 N=15 base topologies. Each request is a fresh gain drift
// of a base topology (75%, a warm dual-seeded solve), an exact repeat of one
// of the sender's recent instances (20%, a cache hit), or a brand-new
// topology (5%, a cold solve).
const (
	driftTopologies  = 64
	driftN           = 15
	driftSigma       = 0.3
	driftRepeatShare = 0.20
	driftFreshShare  = 0.05
	driftRecent      = 64
)

type driftSpec struct {
	base  []op
	plans [][]op
}

func newDriftSpec(seed int64, seconds, rate float64) (spec, error) {
	rng := rand.New(rand.NewSource(seed))
	sp := &driftSpec{}
	for k := 0; k < driftTopologies; k++ {
		sys, err := newSystem(driftN, rng.Int63())
		if err != nil {
			return nil, err
		}
		sp.base = append(sp.base, solveOp(&instance{sys: sys, w: weights}, ""))
	}
	senders := senderCount()
	for s := 0; s < senders; s++ {
		srng := rand.New(rand.NewSource(rng.Int63()))
		times := schedule(srng, rate/float64(senders), seconds)
		pick := sampled(srng, len(times), objectiveSamples/senders)
		var recent []op
		var plan []op
		for i, t := range times {
			var o op
			switch u := srng.Float64(); {
			case u < driftRepeatShare && len(recent) > 0:
				o = recent[srng.Intn(len(recent))]
			case u < 1-driftFreshShare:
				base := sp.base[srng.Intn(len(sp.base))].inst[0]
				o = solveOp(&instance{sys: drifted(base.sys, driftSigma, srng), w: weights}, "")
			default:
				sys, err := newSystem(driftN, srng.Int63())
				if err != nil {
					return nil, err
				}
				o = solveOp(&instance{sys: sys, w: weights}, "")
			}
			if len(recent) < driftRecent {
				recent = append(recent, o)
			} else {
				recent[i%driftRecent] = o
			}
			o.due, o.sampled = t, pick[i]
			plan = append(plan, o)
		}
		sp.plans = append(sp.plans, plan)
	}
	return sp, nil
}

func (sp *driftSpec) prime(st *stack) error { return primeOps(st, sp.base) }
func (sp *driftSpec) plan(*stack) [][]op    { return sp.plans }

// stream-delta: 16 delta sessions of N=50, each bound to one sender so its
// sequence numbers arrive in order. Every delta is its own POST carrying one
// device's gain drift.
const (
	streamSessions = 16
	streamN        = 50
	streamSigma    = 0.05
)

type streamSpec struct {
	base  []*instance
	opens [][]byte
	// plans hold every delta; prime fills in the session paths.
	plans [][]op
	owner [][]int // plans[s][i] belongs to session owner[s][i]
}

func newStreamSpec(seed int64, seconds, rate float64) (spec, error) {
	rng := rand.New(rand.NewSource(seed))
	sp := &streamSpec{}
	for k := 0; k < streamSessions; k++ {
		sys, err := newSystem(streamN, rng.Int63())
		if err != nil {
			return nil, err
		}
		in := &instance{sys: sys, w: weights}
		sp.base = append(sp.base, in)
		sp.opens = append(sp.opens, mustJSON(solveRequest(in, fmt.Sprintf("sess-%02d", k))))
	}
	senders := senderCount()
	for s := 0; s < senders; s++ {
		srng := rand.New(rand.NewSource(rng.Int63()))
		var mine []int
		gains := make(map[int][]float64)
		seq := make(map[int]uint64)
		for k := s; k < streamSessions; k += senders {
			mine = append(mine, k)
			g := make([]float64, streamN)
			for i, d := range sp.base[k].sys.Devices {
				g[i] = d.Gain
			}
			gains[k] = g
		}
		times := schedule(srng, rate/float64(senders), seconds)
		pick := sampled(srng, len(times), objectiveSamples/senders)
		var plan []op
		var owner []int
		for i, t := range times {
			k := mine[srng.Intn(len(mine))]
			dev := srng.Intn(streamN)
			gains[k][dev] *= math.Exp(streamSigma * srng.NormFloat64())
			seq[k]++
			body := mustJSON(repro.StreamDeltaJSON{Seq: seq[k], Gains: map[int]float64{dev: gains[k][dev]}})
			o := op{due: t, kind: opDelta, contentType: repro.StreamNDJSONContentType,
				body: append(body, '\n'), inst: []*instance{sp.base[k]}, seq: seq[k], sampled: pick[i]}
			if o.sampled { // score against the session's state after this delta
				sys := *sp.base[k].sys
				sys.Devices = append([]repro.Device(nil), sys.Devices...)
				for j := range sys.Devices {
					sys.Devices[j].Gain = gains[k][j]
				}
				o.inst = []*instance{{sys: &sys, w: weights}}
			}
			plan = append(plan, o)
			owner = append(owner, k)
		}
		sp.plans = append(sp.plans, plan)
		sp.owner = append(sp.owner, owner)
	}
	return sp, nil
}

func (sp *streamSpec) prime(st *stack) error {
	st.sessions = make([]string, streamSessions)
	client := newClient()
	defer client.CloseIdleConnections()
	for k, body := range sp.opens {
		resp, err := client.Post(st.url+"/v1/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("opening session %d: %w", k, err)
		}
		var out repro.StreamOpenResponseJSON
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if err == nil {
			_, err = checkSolved(sp.base[k], &out.Result)
		}
		if err != nil {
			return fmt.Errorf("opening session %d: %w", k, err)
		}
		st.sessions[k] = out.SessionID
	}
	return nil
}

func (sp *streamSpec) plan(st *stack) [][]op {
	plans := make([][]op, len(sp.plans))
	for s, plan := range sp.plans {
		plans[s] = append([]op(nil), plan...)
		for i := range plans[s] {
			plans[s][i].path = "/v1/stream/" + st.sessions[sp.owner[s][i]] + "/deltas"
		}
	}
	return plans
}

// deadline-batch: one sender keeps one bulk solve-batch call of 8 deadline-
// mode N=50 instances in flight. Every instance is a fresh gain drift of one
// of 16 topologies, taken in turn, so nothing is answered from the cache and
// each seed's mix of easy and hard topologies averages out.
const (
	batchSize       = 8
	batchN          = 50
	batchTopologies = 16
	batchDeadline   = 120.0 // s
	batchSigma      = 0.3
	batchSamples    = 20
	// batchPerSecond bounds the batches generated per second of window; a
	// batch takes about 1 s today, so this leaves room for a 10x faster
	// deadline solver.
	batchPerSecond = 12
)

type batchSpec struct {
	warmup []op
	plans  [][]op
}

func newBatchSpec(seed int64, seconds, _ float64) (spec, error) {
	rng := rand.New(rand.NewSource(seed))
	var bases []*repro.System
	for k := 0; k < batchTopologies; k++ {
		sys, err := newSystem(batchN, rng.Int63())
		if err != nil {
			return nil, err
		}
		bases = append(bases, sys)
	}
	draws := 0
	batch := func() (op, error) {
		req := repro.SolveBatchRequestJSON{Priority: "bulk"}
		o := op{kind: opBatch, path: "/v1/solve-batch", contentType: "application/json"}
		for tries := 0; len(o.inst) < batchSize; tries++ {
			if tries == 100*batchSize {
				return op{}, fmt.Errorf("deadline-batch: too few feasible instances under a %g s deadline", batchDeadline)
			}
			sys := drifted(bases[draws%len(bases)], batchSigma, rng)
			draws++
			// Keep only instances whose deadline is comfortably feasible,
			// so no operation fails.
			_, round, err := repro.MinCompletionTime(sys)
			if err != nil || round*sys.GlobalRounds > 0.9*batchDeadline {
				continue
			}
			in := &instance{sys: sys, w: weights, deadline: batchDeadline}
			o.inst = append(o.inst, in)
			req.Requests = append(req.Requests, solveRequest(in, ""))
		}
		o.body = mustJSON(req)
		return o, nil
	}
	warmup, err := batch()
	if err != nil {
		return nil, err
	}
	var plan []op
	for len(plan) < int(seconds*batchPerSecond)+2 {
		o, err := batch()
		if err != nil {
			return nil, err
		}
		o.sampled = len(plan)*batchSize < batchSamples
		plan = append(plan, o)
	}
	return &batchSpec{warmup: []op{warmup}, plans: [][]op{plan}}, nil
}

func (sp *batchSpec) prime(st *stack) error { return primeOps(st, sp.warmup) }
func (sp *batchSpec) plan(*stack) [][]op    { return sp.plans }
