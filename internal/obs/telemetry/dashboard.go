package telemetry

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/obs"
)

// DashboardPath is where the cmds mount the SSE ops dashboard on their
// -debug-addr servers.
const DashboardPath = "/debug/dashboard"

// Dashboard interval bounds for the ?interval= override.
const (
	DefaultDashboardInterval = time.Second
	MinDashboardInterval     = 100 * time.Millisecond
	MaxDashboardInterval     = time.Minute
)

// Source is one named section of the dashboard feed. Fetch runs once per
// tick on the request goroutine; a nil return drops the section from that
// frame.
type Source struct {
	Name  string
	Fetch func() any
}

// DashboardConfig wires the dashboard's data sources.
type DashboardConfig struct {
	// Interval is the default frame cadence; clients may override with a
	// validated ?interval= duration.
	Interval time.Duration
	// Sources are rendered into each frame in order.
	Sources []Source
}

// frame is one SSE data payload.
type frame struct {
	Seq      int64          `json:"seq"`
	At       time.Time      `json:"at"`
	Sections map[string]any `json:"sections"`
}

// parseInterval validates the dashboard's ?interval= override: absent
// selects def, anything else must be a duration within
// [MinDashboardInterval, MaxDashboardInterval]. Errors are *obs.QueryError.
func parseInterval(q url.Values, def time.Duration) (time.Duration, error) {
	v := q.Get("interval")
	if v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, &obs.QueryError{Param: "interval", Value: v, Reason: "not a duration (try 500ms)"}
	}
	if d < MinDashboardInterval || d > MaxDashboardInterval {
		return 0, &obs.QueryError{Param: "interval", Value: v,
			Reason: "must be between " + MinDashboardInterval.String() + " and " + MaxDashboardInterval.String()}
	}
	return d, nil
}

// DashboardHandler serves GET /debug/dashboard as a Server-Sent Events
// stream: one `tick` event per interval whose data is a JSON object with
// a section per configured source (health windows, alert ring, per-cell
// rates, in-flight trace summaries — whatever the cmd wired). The stream
// runs until the client disconnects. `curl -N` renders it live.
func DashboardHandler(cfg DashboardConfig) http.Handler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultDashboardInterval
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		interval, err := parseInterval(r.URL.Query(), cfg.Interval)
		if err != nil {
			_ = obs.WriteQueryError(w, err)
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)

		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var seq int64
		emit := func() bool {
			seq++
			f := frame{Seq: seq, At: time.Now(), Sections: make(map[string]any, len(cfg.Sources))}
			for _, s := range cfg.Sources {
				if s.Fetch == nil {
					continue
				}
				if v := s.Fetch(); v != nil {
					f.Sections[s.Name] = v
				}
			}
			data, err := json.Marshal(f)
			if err != nil {
				return false
			}
			if _, err := w.Write(append(append(append(append(
				[]byte("event: tick\nid: "), strconv.FormatInt(seq, 10)...), "\ndata: "...), data...), "\n\n"...)); err != nil {
				return false
			}
			flusher.Flush()
			return true
		}
		if !emit() { // first frame immediately, then on the ticker
			return
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case <-ticker.C:
				if !emit() {
					return
				}
			}
		}
	})
}
