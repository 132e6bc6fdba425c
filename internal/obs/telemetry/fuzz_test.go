package telemetry

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzDashboardInterval feeds raw query strings to the dashboard's
// ?interval= parse. Every input must either fail with an interval
// *obs.QueryError, which the handler answers with a 400 before it starts
// streaming, or yield the default (parameter absent) or an interval within
// [MinDashboardInterval, MaxDashboardInterval]; nothing may panic.
func FuzzDashboardInterval(f *testing.F) {
	for _, seed := range []string{
		"",
		"interval=200ms",
		"interval=100ms",
		"interval=99ms",
		"interval=1m",
		"interval=1m1ns",
		"interval=warp",
		"interval=-1s",
		"interval=9223372036854775807ns",
		"interval=1e400s",
		"interval=%zz",
		"interval=&interval=5s",
	} {
		f.Add(seed)
	}
	const def = 7 * time.Second
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // r.URL.Query() drops the error too
		d, err := parseInterval(q, def)
		if err != nil {
			var qe *obs.QueryError
			if !errors.As(err, &qe) || qe.Param != "interval" {
				t.Fatalf("%q: error %T %v, want an interval QueryError", raw, err, err)
			}
			// A cancelled context ends the stream at once should the
			// handler wrongly accept the query, so a failure cannot hang.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, DashboardPath+"?"+q.Encode(), nil).WithContext(ctx)
			DashboardHandler(DashboardConfig{Interval: def}).ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q: handler answered %d, want 400", raw, rec.Code)
			}
			return
		}
		if q.Get("interval") == "" {
			if d != def {
				t.Fatalf("%q: absent interval gave %v, want the default %v", raw, d, def)
			}
			return
		}
		if d < MinDashboardInterval || d > MaxDashboardInterval {
			t.Fatalf("%q: interval %v out of bounds", raw, d)
		}
	})
}
