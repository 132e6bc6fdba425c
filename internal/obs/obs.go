// Package obs is the request-scoped observability layer for the serving
// stack: solve-lifecycle traces threaded through context.Context, a
// lock-cheap collector ring with slowest-N exemplars behind GET
// /debug/traces, per-phase latency histograms merged into /metrics, and
// structured slog helpers shared by the cmds.
//
// A Trace is an ordered span list for one request (or one admin
// operation). Layers record spans against whatever trace rides the
// context; a nil *Trace is a valid no-op receiver, so instrumented code
// pays a single pointer check when tracing is disabled or the request was
// sampled out. Traces are created by Collector.StartTrace — normally via
// Middleware at the HTTP boundary — and survive cross-cell handoffs,
// epoch re-routes, and control-plane drains because every layer below
// receives the same context.
package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Span phases recorded by the stack, one constant per lifecycle stage.
// The set is open — Record accepts any phase string — but these names are
// what the histogram series and the README document.
const (
	// PhaseQueueWait is the time a task waited in the worker queue.
	PhaseQueueWait = "queue_wait"
	// PhaseFingerprint is request canonicalization + hashing.
	PhaseFingerprint = "fingerprint"
	// PhaseCacheLookup is the result-cache probe; Detail carries the hit
	// kind ("hit" or "miss").
	PhaseCacheLookup = "cache_lookup"
	// PhaseDedupWait is a follower waiting on an identical in-flight solve.
	PhaseDedupWait = "dedup_wait"
	// PhaseSolve is the full Algorithm 2 run; Detail carries the serving
	// path ("cold").
	PhaseSolve = "solve"
	// PhaseSP1 / PhaseSP2 split the solve into Subproblem 1 (frequencies
	// and deadline) and Subproblem 2 (powers and bandwidths) time; PhaseSP1's
	// Value is the outer iteration count.
	PhaseSP1 = "sp1"
	PhaseSP2 = "sp2"
	// PhaseRoute is one per-cell solve attempt inside the cluster router;
	// Cell names the cell tried, Detail "rerouted" marks an epoch re-route.
	PhaseRoute = "route"
	// PhaseDeltaApply is a streaming gain-delta application; Value is the
	// applied sequence number.
	PhaseDeltaApply = "delta_apply"
	// PhaseCoalesceWait is the time a delta spent queued behind an
	// in-flight solve or a drain suspension; Detail "coalesced" marks a
	// delta answered by a covering later re-solve, Value the covering seq.
	PhaseCoalesceWait = "coalesce_wait"
	// PhaseHandoffExtract / PhaseHandoffInject are the two sides of a
	// per-device handoff; Cell names the source / destination cell and
	// Value the cache entries moved.
	PhaseHandoffExtract = "handoff_extract"
	PhaseHandoffInject  = "handoff_inject"
	// PhaseMassPlan is MassHandoff's single-pass repin/collect walk;
	// PhaseMassExtract / PhaseMassInject are its per-cell batch stages
	// (Cell = source / destination, Value = instances moved).
	PhaseMassPlan    = "mass_plan"
	PhaseMassExtract = "mass_extract"
	PhaseMassInject  = "mass_inject"
	// Drain stages inside ctrl.DrainCell: plan the evacuation, suspend the
	// affected sessions, remove the emptied cell, resume sessions. The
	// migration between suspend and remove shows up as mass_* spans.
	PhaseDrainPlan    = "drain_plan"
	PhaseDrainSuspend = "drain_suspend"
	PhaseDrainRemove  = "drain_remove"
	PhaseDrainResume  = "drain_resume"
	// PhaseCrashRemove is ctrl.CrashCell's drain-less removal: nothing
	// migrates, the cell's state dies with it.
	PhaseCrashRemove = "crash_remove"
	// PhaseError is a zero-duration mark recorded by the HTTP front ends
	// when a request ends in an error response; Detail carries the error
	// string. It exists for requests that fail before any solve span is
	// recorded (malformed bodies, queue-full sheds), so the flight
	// recorder can still attribute the failure.
	PhaseError = "error"
	// PhaseTotal is recorded by Finish for the whole trace.
	PhaseTotal = "total"
)

// CellNone marks a span that is not scoped to a cluster cell.
const CellNone = -1

// Attr carries the optional attributes of a span. Callers that record
// cell-scoped spans set Cell to the real cell ID; everything else passes
// CellNone.
type Attr struct {
	// Cell is the serving cell the span ran on, or CellNone.
	Cell int
	// Detail is a short human-readable qualifier (hit kind, serving path,
	// drain stage notes).
	Detail string
	// Value is a phase-specific integer fact (outer iterations, devices
	// moved, coalesced seq).
	Value int64
}

// Span is one recorded lifecycle stage inside a trace. Offsets and
// durations are microseconds so trace JSON stays compact and readable.
type Span struct {
	Phase   string `json:"phase"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Cell    int    `json:"cell"`
	Detail  string `json:"detail,omitempty"`
	Value   int64  `json:"value,omitempty"`

	dur time.Duration
}

// Trace accumulates the spans of one request. All methods are safe on a
// nil receiver (no-ops), which is the fast path when tracing is disabled
// or the request was sampled out entirely; they are also safe for
// concurrent use, since spans arrive from worker goroutines.
type Trace struct {
	c       *Collector
	id      string
	start   time.Time
	sampled bool

	mu       sync.Mutex
	spans    []Span
	total    time.Duration
	finished bool
}

// ID returns the trace's hex ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Sampled reports whether the trace was chosen for default retention.
// Slow traces are retained regardless (post-hoc promotion in Finish).
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// Record adds a span that started at began and ends now, with no cell
// scope or detail.
func (t *Trace) Record(phase string, began time.Time) {
	if t == nil {
		return
	}
	t.RecordDur(phase, began, time.Since(began), Attr{Cell: CellNone})
}

// RecordAttr adds a span that started at began and ends now, with the
// given attributes.
func (t *Trace) RecordAttr(phase string, began time.Time, a Attr) {
	if t == nil {
		return
	}
	t.RecordDur(phase, began, time.Since(began), a)
}

// RecordDur adds a span with an explicit duration, for phases whose
// timing was measured elsewhere (e.g. the solver's own SP1/SP2 clocks).
func (t *Trace) RecordDur(phase string, began time.Time, dur time.Duration, a Attr) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	s := Span{
		Phase:   phase,
		StartUS: began.Sub(t.start).Microseconds(),
		DurUS:   dur.Microseconds(),
		Cell:    a.Cell,
		Detail:  a.Detail,
		Value:   a.Value,
		dur:     dur,
	}
	t.mu.Lock()
	if !t.finished {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Mark adds a zero-duration event span at the current instant.
func (t *Trace) Mark(phase string, a Attr) {
	if t == nil {
		return
	}
	t.RecordDur(phase, time.Now(), 0, a)
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Total returns the trace's end-to-end duration (zero before Finish).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Finish seals the trace: records the total span, feeds every span into
// the collector's per-phase histograms, and retains the trace in the
// recent ring if it was sampled in — or unconditionally if its total
// crossed the collector's slow threshold (so a slow solve is always
// explainable even at 1-in-N sampling). Idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.total = time.Since(t.start)
	t.spans = append(t.spans, Span{
		Phase:   PhaseTotal,
		StartUS: 0,
		DurUS:   t.total.Microseconds(),
		Cell:    CellNone,
		dur:     t.total,
	})
	t.mu.Unlock()
	t.c.observe(t)
}

// TraceJSON is the wire form of a finished trace in GET /debug/traces.
type TraceJSON struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	TotalUS int64     `json:"total_us"`
	Sampled bool      `json:"sampled"`
	Slow    bool      `json:"slow"`
	Spans   []Span    `json:"spans"`
}

func (t *Trace) toJSON(slowAt time.Duration) TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	return TraceJSON{
		TraceID: t.id,
		Start:   t.start,
		TotalUS: t.total.Microseconds(),
		Sampled: t.sampled,
		Slow:    slowAt > 0 && t.total >= slowAt,
		Spans:   spans,
	}
}

// phaseSummary renders "phase=dur phase=dur ..." for slow-trace logs.
func (t *Trace) phaseSummary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b []byte
	for i, s := range t.spans {
		if s.Phase == PhaseTotal {
			continue
		}
		if i > 0 && len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, s.Phase...)
		b = append(b, '=')
		b = append(b, s.dur.String()...)
		if s.Cell != CellNone {
			b = append(b, "@cell"...)
			b = strconv.AppendInt(b, int64(s.Cell), 10)
		}
	}
	return string(b)
}

type traceKey struct{}

// WithTrace returns a context carrying the trace. A nil trace returns
// ctx unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace riding the context, or nil. The nil
// return is usable directly: every Trace method no-ops on nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
