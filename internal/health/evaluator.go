package health

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults applied by Config.withDefaults.
const (
	// DefaultTick is the evaluator's polling interval; DefaultWindowTicks
	// how many intervals a rolling window holds (15 × 2s = a 30s window).
	DefaultTick        = 2 * time.Second
	DefaultWindowTicks = 15
	// DefaultBreachAfter / DefaultClearAfter are the stock hysteresis
	// widths, in consecutive ticks.
	DefaultBreachAfter = 3
	DefaultClearAfter  = 3
	// DefaultAlertRing bounds the alert-event ring behind /debug/alerts.
	DefaultAlertRing = 256
)

// AlertKind classifies alert-ring events.
type AlertKind string

const (
	// KindSLO marks a rule state transition.
	KindSLO AlertKind = "slo"
	// KindMembership marks a cell joining or leaving the sampled set.
	KindMembership AlertKind = "membership"
	// KindAutoscale marks an advisor action being enacted (or failing).
	KindAutoscale AlertKind = "autoscale"
	// KindCrash marks a drain-less cell removal (failure injection or real
	// crash detection) reported by the control plane.
	KindCrash AlertKind = "crash"
	// KindProfile marks an SLO-triggered pprof capture (the forensics
	// profile trigger reporting where the evidence landed).
	KindProfile AlertKind = "profile"
)

// ProcessCell is the pseudo-cell of process-level events and runtime-rule
// transitions (alerts already use -1 for cluster-level events; runtime
// vitals are judged per process, not per cell).
const ProcessCell = -1

// Transition describes one SLO state change, delivered to the
// Config.OnTransition hook. Cell is ProcessCell for runtime rules.
type Transition struct {
	Time      time.Time
	Cell      int
	Rule      string
	Metric    Metric
	From, To  State
	Value     float64
	Threshold float64
}

// Alert is one event in the ring behind GET /debug/alerts.
type Alert struct {
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	Kind AlertKind `json:"kind"`
	// Cell is the subject cell, or -1 for cluster-level events.
	Cell int `json:"cell"`
	// Rule/Metric/From/To/Value/Threshold describe an SLO transition
	// (empty for membership and autoscale events).
	Rule      string  `json:"rule,omitempty"`
	Metric    Metric  `json:"metric,omitempty"`
	From      State   `json:"from,omitempty"`
	To        State   `json:"to,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Message is the human-readable one-liner (always set).
	Message string `json:"message"`
}

// Source feeds the evaluator one reading per live cell per tick.
// Implementations: RouterSource (a cluster), ServerSource (one flserved
// process), or anything synthetic in tests.
type Source interface {
	Sample() []CellSample
}

// Config tunes an Evaluator; zero values take defaults. Source is
// required.
type Config struct {
	Source Source
	// Tick is the polling interval of Run; WindowTicks the ring length
	// (window span = Tick × WindowTicks).
	Tick        time.Duration
	WindowTicks int
	// Rules is the SLO set; nil means DefaultRules(). An explicit empty
	// slice disables SLO judging (windows still accumulate).
	Rules []Rule
	// BreachAfter/ClearAfter are hysteresis defaults for rules that don't
	// set their own.
	BreachAfter int
	ClearAfter  int
	// AlertRing bounds the event ring.
	AlertRing int
	// Logger receives state-transition and autoscale logs; nil uses
	// slog.Default().
	Logger *slog.Logger
	// Advisor tunes the scale recommendation policy.
	Advisor AdvisorConfig
	// Actuator, when set, lets Run enact the advisor's plans (scale up /
	// drain through the control plane). Nil means advise-only: the plan is
	// still served at /v1/autoscale/plan but nothing acts on it.
	Actuator Actuator
	// Runtime, when set, samples process-level Go runtime vitals each
	// tick; RuntimeRules judges them (nil means DefaultRuntimeRules(); an
	// explicit empty slice samples without judging).
	Runtime      func() RuntimeSample
	RuntimeRules []Rule
	// OnTransition, when set, receives every SLO state change — cell and
	// runtime rules alike — after the evaluator's lock is released, so
	// the hook may call back into the evaluator (RecordEvent from a
	// profile trigger is the intended consumer). It runs on the
	// evaluator's tick goroutine and should not block.
	OnTransition func(Transition)
}

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = DefaultTick
	}
	if c.WindowTicks <= 0 {
		c.WindowTicks = DefaultWindowTicks
	}
	if c.Rules == nil {
		c.Rules = DefaultRules()
	}
	if c.BreachAfter <= 0 {
		c.BreachAfter = DefaultBreachAfter
	}
	if c.ClearAfter <= 0 {
		c.ClearAfter = DefaultClearAfter
	}
	if c.AlertRing <= 0 {
		c.AlertRing = DefaultAlertRing
	}
	if c.Runtime != nil && c.RuntimeRules == nil {
		c.RuntimeRules = DefaultRuntimeRules()
	}
	c.Advisor = c.Advisor.withDefaults()
	return c
}

// Evaluator is the health engine: rolling windows per cell, SLO state
// machines per (cell, rule), the alert ring, and the autoscale advisor.
// Observe is the synchronous step (tests drive it with synthetic samples);
// Start/Close run it on the configured tick.
type Evaluator struct {
	cfg Config
	log *slog.Logger

	alerts   *obs.Ring[Alert]
	alertSeq atomic.Int64

	ticks         atomic.Int64
	transitions   atomic.Int64
	scaleUps      atomic.Int64
	scaleDowns    atomic.Int64
	crashEvents   atomic.Int64
	profileEvents atomic.Int64

	mu       sync.Mutex
	windows  map[int]*cellWindow
	rules    map[int][]ruleState // per cell, parallel to cfg.Rules
	rtStates []ruleState         // parallel to cfg.RuntimeRules
	rtSample RuntimeSample       // latest vitals reading
	lastObs  time.Time
	adv      advisorState
	plan     Plan

	started atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// New builds an evaluator. It does not start polling — call Start, or
// drive Observe directly.
func New(cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	e := &Evaluator{
		cfg:     cfg,
		log:     log,
		alerts:  obs.NewRing[Alert](cfg.AlertRing),
		windows: make(map[int]*cellWindow),
		rules:   make(map[int][]ruleState),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.plan = Plan{Action: ActionNone, Cell: -1}
	return e
}

// Start launches the polling loop: every Tick it samples the source,
// observes, and (with an Actuator configured) enacts the advisor's plan.
// Safe to call once; further calls are no-ops.
func (e *Evaluator) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.cfg.Tick)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.Tick(context.Background())
			}
		}
	}()
}

// Close stops the polling loop (idempotent; a never-started evaluator
// closes cleanly too).
func (e *Evaluator) Close() {
	e.once.Do(func() { close(e.stop) })
	if e.started.Load() {
		<-e.done
	}
}

// Tick performs one full cycle: sample, observe, enact. Returns the plan
// in force after the cycle.
func (e *Evaluator) Tick(ctx context.Context) Plan {
	plan := e.Observe(time.Now(), e.cfg.Source.Sample())
	if plan.Action != ActionNone && e.cfg.Actuator != nil {
		e.enact(ctx, plan)
	}
	return plan
}

// Observe folds one round of samples into the windows, steps every SLO
// state machine (cell and runtime rules), refreshes membership, and
// recomputes the advisor plan. Exported so tests (and alternative
// drivers) can feed synthetic samples with explicit timestamps. Safe for
// concurrent use with the read paths. The OnTransition hook fires after
// the evaluator's lock is released, so hooks may call back in.
func (e *Evaluator) Observe(now time.Time, samples []CellSample) Plan {
	plan, trans := e.observeLocked(now, samples)
	if e.cfg.OnTransition != nil {
		for _, t := range trans {
			e.cfg.OnTransition(t)
		}
	}
	return plan
}

func (e *Evaluator) observeLocked(now time.Time, samples []CellSample) (Plan, []Transition) {
	e.ticks.Add(1)
	var trans []Transition
	e.mu.Lock()
	defer e.mu.Unlock()

	span := e.cfg.Tick
	if !e.lastObs.IsZero() {
		if d := now.Sub(e.lastObs); d > 0 {
			span = d
		}
	}
	e.lastObs = now

	// Membership: new cells join, vanished cells leave (their windows and
	// rule states go with them — a later return with the same ID starts
	// fresh, which the reset-safe deltas would handle anyway).
	seen := make(map[int]bool, len(samples))
	for _, s := range samples {
		seen[s.Cell] = true
		if e.windows[s.Cell] == nil {
			e.windows[s.Cell] = newCellWindow(s.Cell, e.cfg.WindowTicks)
			e.rules[s.Cell] = make([]ruleState, len(e.cfg.Rules))
			e.emit(Alert{
				Time: now, Kind: KindMembership, Cell: s.Cell,
				Message: fmt.Sprintf("cell %d joined", s.Cell),
			})
		}
	}
	for id := range e.windows {
		if !seen[id] {
			delete(e.windows, id)
			delete(e.rules, id)
			e.emit(Alert{
				Time: now, Kind: KindMembership, Cell: id,
				Message: fmt.Sprintf("cell %d left", id),
			})
		}
	}

	// Windows + rules.
	anyBreached := false
	for _, s := range samples {
		cw := e.windows[s.Cell]
		cw.step(s, span)
		ws := cw.stats()
		states := e.rules[s.Cell]
		for i, r := range e.cfg.Rules {
			from, changed := states[i].step(r, ws.Value(r.Metric), ws.Requests, e.cfg.BreachAfter, e.cfg.ClearAfter, now)
			if states[i].state == StateBreached {
				anyBreached = true
			}
			if !changed {
				continue
			}
			trans = append(trans, e.recordTransition(now, s.Cell, r, from, &states[i]))
		}
	}

	// Runtime vitals: one process-level reading, judged by the runtime
	// rules against pseudo-cell ProcessCell.
	if e.cfg.Runtime != nil {
		e.rtSample = e.cfg.Runtime()
		if len(e.rtStates) != len(e.cfg.RuntimeRules) {
			e.rtStates = make([]ruleState, len(e.cfg.RuntimeRules))
		}
		for i, r := range e.cfg.RuntimeRules {
			from, changed := e.rtStates[i].step(r, e.rtSample.Value(r.Metric), 0, e.cfg.BreachAfter, e.cfg.ClearAfter, now)
			if !changed {
				continue
			}
			trans = append(trans, e.recordTransition(now, ProcessCell, r, from, &e.rtStates[i]))
		}
	}

	e.plan = e.advise(now, samples, anyBreached)
	return e.plan, trans
}

// recordTransition files one SLO state change: transition counter, alert
// ring, log line. Callers hold e.mu; the returned Transition is handed to
// the OnTransition hook after the lock is released.
func (e *Evaluator) recordTransition(now time.Time, cell int, r Rule, from State, rs *ruleState) Transition {
	e.transitions.Add(1)
	to := rs.state
	subject := fmt.Sprintf("cell %d", cell)
	if cell == ProcessCell {
		subject = "process"
	}
	e.emit(Alert{
		Time: now, Kind: KindSLO, Cell: cell,
		Rule: r.Name, Metric: r.Metric, From: from, To: to,
		Value: rs.lastValue, Threshold: r.Threshold,
		Message: fmt.Sprintf("%s %s: %s %s→%s (value %.4g, threshold %.4g)",
			subject, r.Name, r.Metric, from, to, rs.lastValue, r.Threshold),
	})
	lvl := slog.LevelInfo
	if to == StateBreached {
		lvl = slog.LevelWarn
	}
	e.log.Log(context.Background(), lvl, "slo transition",
		"cell", cell, "rule", r.Name, "metric", string(r.Metric),
		"from", string(from), "to", string(to),
		"value", rs.lastValue, "threshold", r.Threshold)
	return Transition{
		Time: now, Cell: cell, Rule: r.Name, Metric: r.Metric,
		From: from, To: to, Value: rs.lastValue, Threshold: r.Threshold,
	}
}

// emit appends to the alert ring; callers hold e.mu (the ring is itself
// synchronized, the mutex just keeps Seq ordering consistent with it).
func (e *Evaluator) emit(a Alert) {
	a.Seq = e.alertSeq.Add(1)
	e.alerts.Append(a)
}

// RecordEvent files a control-plane lifecycle event into the alert ring.
// It satisfies the control plane's EventRecorder structurally: kind
// "crash" becomes a KindCrash alert (warn-logged — a cell just died with
// its state), "profile" a KindProfile
// alert (the forensics trigger reporting a capture); anything else lands
// as KindMembership so no event is ever dropped on the floor.
func (e *Evaluator) RecordEvent(kind string, cell int, message string) {
	var k AlertKind
	switch kind {
	case "crash":
		k = KindCrash
		e.crashEvents.Add(1)
	case "profile":
		k = KindProfile
		e.profileEvents.Add(1)
	default:
		k = KindMembership
	}
	e.mu.Lock()
	e.emit(Alert{Time: time.Now(), Kind: k, Cell: cell, Message: message})
	e.mu.Unlock()
	lvl := slog.LevelInfo
	if k == KindCrash {
		lvl = slog.LevelWarn
	}
	e.log.Log(context.Background(), lvl, "control-plane event",
		"kind", kind, "cell", cell, "message", message)
}

// Alerts returns the retained alert events, newest first.
func (e *Evaluator) Alerts() []Alert { return e.alerts.Snapshot() }

// AlertsDropped reports how many alert events the bounded ring has evicted
// — the silent-truncation counter behind health_alerts_dropped_total.
func (e *Evaluator) AlertsDropped() int64 { return e.alerts.Evicted() }

// CellHealth is one cell's standing in the /v1/health body.
type CellHealth struct {
	Cell   int          `json:"cell"`
	State  State        `json:"state"`
	Window WindowStats  `json:"window"`
	Rules  []RuleStatus `json:"rules,omitempty"`
}

// RuntimeHealth is the process-level section of the /v1/health body: the
// latest vitals sample and the runtime rules' standing.
type RuntimeHealth struct {
	Sample RuntimeSample `json:"sample"`
	Rules  []RuleStatus  `json:"rules,omitempty"`
}

// HealthJSON is the GET /v1/health body. Status is the worst state across
// cells and runtime rules; the endpoint answers 503 when Status is
// breached, so it doubles as a readiness probe.
type HealthJSON struct {
	Status        State          `json:"status"`
	Ticks         int64          `json:"ticks"`
	Cells         []CellHealth   `json:"cells"`
	Runtime       *RuntimeHealth `json:"runtime,omitempty"`
	AlertsTotal   int64          `json:"alerts_total"`
	Transitions   int64          `json:"transitions_total"`
	UptimeSeconds float64        `json:"uptime_seconds"`
}

// Health snapshots every cell's window and rule standing.
func (e *Evaluator) Health() HealthJSON {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := HealthJSON{
		Status:        StateOK,
		Ticks:         e.ticks.Load(),
		AlertsTotal:   e.alerts.Total(),
		Transitions:   e.transitions.Load(),
		UptimeSeconds: obs.Uptime().Seconds(),
	}
	ids := make([]int, 0, len(e.windows))
	for id := range e.windows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		cw := e.windows[id]
		ch := CellHealth{Cell: id, State: StateOK, Window: cw.stats()}
		for i, r := range e.cfg.Rules {
			rs := &e.rules[id][i]
			st := rs.state
			if st == "" {
				st = StateOK
			}
			if st.severity() > ch.State.severity() {
				ch.State = st
			}
			ch.Rules = append(ch.Rules, RuleStatus{
				Rule: r.Name, Metric: r.Metric, State: st,
				Value: rs.lastValue, Threshold: r.Threshold, Under: r.Under,
				BreachStreak: rs.breachStreak, ClearStreak: rs.clearStreak,
			})
		}
		if ch.State.severity() > out.Status.severity() {
			out.Status = ch.State
		}
		out.Cells = append(out.Cells, ch)
	}
	if e.cfg.Runtime != nil {
		rt := &RuntimeHealth{Sample: e.rtSample}
		for i, r := range e.cfg.RuntimeRules {
			if i >= len(e.rtStates) {
				break
			}
			rs := &e.rtStates[i]
			st := rs.state
			if st == "" {
				st = StateOK
			}
			if st.severity() > out.Status.severity() {
				out.Status = st
			}
			rt.Rules = append(rt.Rules, RuleStatus{
				Rule: r.Name, Metric: r.Metric, State: st,
				Value: rs.lastValue, Threshold: r.Threshold, Under: r.Under,
				BreachStreak: rs.breachStreak, ClearStreak: rs.clearStreak,
			})
		}
		out.Runtime = rt
	}
	return out
}

// Plan returns the advisor's current recommendation.
func (e *Evaluator) Plan() Plan {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.plan
}
