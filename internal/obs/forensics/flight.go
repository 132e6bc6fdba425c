package forensics

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultFlightEvents is the stock flight-recorder ring capacity. At one
// event per request it holds the last few minutes of a busy process —
// wide enough to cover the window between an SLO breach and an operator
// downloading /debug/incident.
const DefaultFlightEvents = 4096

// Event is one request's wide event: the handful of facts an incident
// investigation asks of every request, flattened out of the trace's spans
// into one fixed-shape record. Microsecond durations keep the ring and
// its JSON dump compact.
type Event struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	TotalUS int64     `json:"total_us"`
	// Cell is the serving cell (the last cell-scoped span wins, so an
	// epoch re-route reports the cell that finally answered), or -1.
	Cell int `json:"cell"`
	// Path is the serving path: "cold", or "" for requests that never
	// reached the solver (cache hits, errors).
	Path string `json:"path,omitempty"`
	// Cache is the cache-lookup outcome ("hit" or "miss"), if any.
	Cache string `json:"cache,omitempty"`
	// Queue is the dispatch queue the request waited in ("interactive" or
	// "bulk"); QueueWaitUS the total time it spent there.
	Queue       string `json:"queue,omitempty"`
	QueueWaitUS int64  `json:"queue_wait_us,omitempty"`
	// Error is the failure string for requests that ended in an error
	// (solver errors, queue-full sheds, malformed bodies).
	Error string `json:"error,omitempty"`
	// Slow mirrors the trace's slow-promotion flag.
	Slow bool `json:"slow,omitempty"`
}

// EventFromTrace flattens one finished trace into its wide event.
func EventFromTrace(t obs.TraceJSON) Event {
	e := Event{TraceID: t.TraceID, Start: t.Start, TotalUS: t.TotalUS, Cell: obs.CellNone, Slow: t.Slow}
	for _, s := range t.Spans {
		if s.Cell != obs.CellNone {
			e.Cell = s.Cell
		}
		switch s.Phase {
		case obs.PhaseQueueWait:
			e.QueueWaitUS += s.DurUS
			e.Queue = s.Detail
		case obs.PhaseCacheLookup:
			e.Cache = s.Detail
		case obs.PhaseSolve:
			if msg, ok := strings.CutPrefix(s.Detail, "error: "); ok {
				e.Error = msg
				continue
			}
			e.Path = s.Detail
		case obs.PhaseError:
			e.Error = s.Detail
		}
	}
	return e
}

// FlightRecorder is the wide-event ring of every traced process. It hangs
// off the collector sink (Observe runs on the request goroutine at trace
// Finish), so the per-request cost is one event derivation plus one ring
// append — a single short mutex hold, same budget as trace retention
// itself.
// All methods are safe on a nil receiver.
type FlightRecorder struct {
	ring     *obs.Ring[Event]
	observed atomic.Int64
}

// NewFlightRecorder builds a recorder retaining the last n events
// (n <= 0 means DefaultFlightEvents).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &FlightRecorder{ring: obs.NewRing[Event](n)}
}

// Observe derives and retains the wide event of one finished trace.
// Chain it after the telemetry exporter on the collector sink.
func (f *FlightRecorder) Observe(t obs.TraceJSON) {
	if f == nil {
		return
	}
	f.observed.Add(1)
	f.ring.Append(EventFromTrace(t))
}

// Events returns the retained events newest first, filtered by the same
// validated query as /debug/traces (limit, min_duration, trace_id).
func (f *FlightRecorder) Events(q obs.TraceQuery) []Event {
	if f == nil {
		return nil
	}
	all := f.ring.Snapshot()
	out := all[:0:0]
	for _, e := range all {
		if q.TraceID != "" && e.TraceID != q.TraceID {
			continue
		}
		if q.MinDuration > 0 && time.Duration(e.TotalUS)*time.Microsecond < q.MinDuration {
			continue
		}
		out = append(out, e)
		if q.Limit > 0 && len(out) == q.Limit {
			break
		}
	}
	return out
}

// FlightStatsJSON is the recorder's lifecycle accounting: how many events
// were ever observed, how many the bounded ring evicted (the
// drop-counter), and how many are retained right now.
type FlightStatsJSON struct {
	Observed int64 `json:"observed"`
	Dropped  int64 `json:"dropped"`
	Retained int   `json:"retained"`
}

// StatsJSON snapshots the recorder's counters.
func (f *FlightRecorder) StatsJSON() FlightStatsJSON {
	if f == nil {
		return FlightStatsJSON{}
	}
	return FlightStatsJSON{
		Observed: f.observed.Load(),
		Dropped:  f.ring.Evicted(),
		Retained: f.ring.Len(),
	}
}

// FlightJSON is the body of GET /debug/flight.
type FlightJSON struct {
	Events []Event `json:"events"`
	FlightStatsJSON
}

// Handler serves GET /debug/flight: the event ring newest first, honoring
// the validated limit/min_duration/trace_id query.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q, err := obs.ParseTraceQuery(r.URL.Query())
		if err != nil {
			if !obs.WriteQueryError(w, err) {
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(FlightJSON{Events: f.Events(q), FlightStatsJSON: f.StatsJSON()})
	})
}

// WritePrometheus appends the obs_flight_* series to a /metrics
// exposition.
func (f *FlightRecorder) WritePrometheus(w io.Writer) error {
	if f == nil {
		return nil
	}
	s := f.StatsJSON()
	var b []byte
	for _, m := range []struct {
		name, typ, help string
		v               int64
	}{
		{"obs_flight_events_total", "counter", "Wide events observed by the flight recorder.", s.Observed},
		{"obs_flight_events_dropped_total", "counter", "Wide events evicted from the bounded flight ring.", s.Dropped},
		{"obs_flight_events_retained", "gauge", "Wide events currently retained in the flight ring.", int64(s.Retained)},
	} {
		b = append(b, "# HELP "...)
		b = append(b, m.name...)
		b = append(b, ' ')
		b = append(b, m.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, m.name...)
		b = append(b, ' ')
		b = append(b, m.typ...)
		b = append(b, '\n')
		b = append(b, m.name...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, m.v, 10)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}
