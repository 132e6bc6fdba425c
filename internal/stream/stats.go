package stream

import (
	"sync/atomic"

	"repro/internal/serve"
)

// Stats aggregates the streaming layer's counters; all fields are updated
// atomically on the delta path.
type Stats struct {
	sessionsOpened   atomic.Int64
	sessionsClosed   atomic.Int64
	sessionsExpired  atomic.Int64
	sessionsRejected atomic.Int64
	sessionsRestored atomic.Int64
	deltas           atomic.Int64
	deltasCoalesced  atomic.Int64
	deltaErrors      atomic.Int64
	solveCache       atomic.Int64
	solveCold        atomic.Int64
}

// countSolve attributes one session solve (opening solve or delta re-solve)
// to its serving path.
func (st *Stats) countSolve(resp serve.Response) {
	if resp.Source == serve.SourceCache {
		st.solveCache.Add(1)
	} else {
		st.solveCold.Add(1)
	}
}

// Snapshot is a point-in-time copy of the streaming counters, shaped for
// the "stream" section of GET /v1/stats.
type Snapshot struct {
	// ActiveSessions is the current session-table occupancy.
	ActiveSessions int `json:"active_sessions"`
	// SuspendedSessions is how many of them are currently suspended by a
	// drain or migration (SuspendDevices without a matching resume yet) —
	// the live signal the ops dashboard shows during a drain arc.
	SuspendedSessions int `json:"suspended_sessions"`
	// SessionsOpened/Closed/Expired/Rejected count session lifecycle
	// events (Rejected are opens refused at MaxSessions).
	SessionsOpened   int64 `json:"sessions_opened"`
	SessionsClosed   int64 `json:"sessions_closed"`
	SessionsExpired  int64 `json:"sessions_expired"`
	SessionsRejected int64 `json:"sessions_rejected"`
	// SessionsRestored counts sessions recreated from a snapshot at boot.
	SessionsRestored int64 `json:"sessions_restored"`
	// Deltas counts applied deltas; DeltasCoalesced counts the subset that
	// queued behind a slow solve (or a drain suspension) and were answered
	// by a covering re-solve of a later state instead of a solve of their
	// own; DeltaErrors counts rejected or failed ones (stale seq, bad
	// delta, unknown session, solver error).
	Deltas          int64 `json:"deltas_applied"`
	DeltasCoalesced int64 `json:"deltas_coalesced"`
	DeltaErrors     int64 `json:"delta_errors"`
	// SolveCache/Cold split session solves (open + delta) by serving
	// path. SolveWarm is always zero — every cache miss solves cold — and
	// stays for callers that read it.
	SolveCache int64 `json:"solve_cache_hits"`
	SolveWarm  int64 `json:"solve_warm_starts"`
	SolveCold  int64 `json:"solve_cold_solves"`
}

func (st *Stats) snapshot() Snapshot {
	return Snapshot{
		SessionsOpened:   st.sessionsOpened.Load(),
		SessionsClosed:   st.sessionsClosed.Load(),
		SessionsExpired:  st.sessionsExpired.Load(),
		SessionsRejected: st.sessionsRejected.Load(),
		SessionsRestored: st.sessionsRestored.Load(),
		Deltas:           st.deltas.Load(),
		DeltasCoalesced:  st.deltasCoalesced.Load(),
		DeltaErrors:      st.deltaErrors.Load(),
		SolveCache:       st.solveCache.Load(),
		SolveCold:        st.solveCold.Load(),
	}
}

// WritePrometheus emits the streaming counters under the given prefix
// (e.g. "flstream") and raw label list (without braces; empty for none).
func (s Snapshot) WritePrometheus(p *serve.PromWriter, prefix, labels string) {
	counters := []struct {
		name, help string
		v          int64
	}{
		{"sessions_opened_total", "Stream sessions opened.", s.SessionsOpened},
		{"sessions_closed_total", "Stream sessions closed by the client.", s.SessionsClosed},
		{"sessions_expired_total", "Stream sessions evicted at the idle TTL.", s.SessionsExpired},
		{"sessions_rejected_total", "Stream opens refused at the session limit.", s.SessionsRejected},
		{"sessions_restored_total", "Stream sessions recreated from a snapshot at boot.", s.SessionsRestored},
		{"deltas_total", "Gain deltas applied across all sessions.", s.Deltas},
		{"deltas_coalesced_total", "Deltas answered by a covering coalesced re-solve instead of their own.", s.DeltasCoalesced},
		{"delta_errors_total", "Deltas rejected (stale seq, bad delta, unknown session) or failed in the solver.", s.DeltaErrors},
	}
	for _, c := range counters {
		p.Counter(prefix+"_"+c.name, c.help, labels, float64(c.v))
	}
	for _, sv := range []struct {
		source string
		v      int64
	}{{"cache", s.SolveCache}, {"cold", s.SolveCold}} {
		sl := `source="` + sv.source + `"`
		if labels != "" {
			sl = labels + "," + sl
		}
		p.Counter(prefix+"_solves_total", "Session solves by serving path.", sl, float64(sv.v))
	}
	p.Gauge(prefix+"_active_sessions", "Currently open stream sessions.", labels, float64(s.ActiveSessions))
	p.Gauge(prefix+"_suspended_sessions", "Sessions currently suspended by a drain or migration.", labels, float64(s.SuspendedSessions))
}
