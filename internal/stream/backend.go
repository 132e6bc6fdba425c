package stream

import (
	"context"
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// Backend abstracts what a session manager re-solves against: a single
// allocation server or a multi-cell cluster router. Both expose the same
// wire API underneath, so the streaming layer mounts uniformly on top of
// either front end.
type Backend interface {
	// Solve answers one request, routed by deviceID where the backend
	// shards (a single server ignores it). The int names the serving cell
	// (always 0 on a single server).
	Solve(ctx context.Context, deviceID string, req serve.Request) (serve.Response, int, error)
	// StatsPayload returns the backend's JSON stats snapshot, embedded
	// verbatim into the combined GET /v1/stats body.
	StatsPayload() any
	// WriteMetrics writes the backend's Prometheus text exposition; the
	// streaming layer appends its own series after it.
	WriteMetrics(w io.Writer)
	// Handler is the backend's base HTTP API; the streaming handler
	// delegates every non-streaming route to it.
	Handler() http.Handler
}

// serveBackend adapts a single serve.Server.
type serveBackend struct{ s *serve.Server }

// NewServeBackend wraps a single allocation server as a session backend.
func NewServeBackend(s *serve.Server) Backend { return serveBackend{s: s} }

func (b serveBackend) Solve(ctx context.Context, _ string, req serve.Request) (serve.Response, int, error) {
	resp, err := b.s.Solve(ctx, req)
	return resp, 0, err
}

func (b serveBackend) StatsPayload() any     { return b.s.Stats() }
func (b serveBackend) Handler() http.Handler { return b.s.Handler() }

func (b serveBackend) WriteMetrics(w io.Writer) {
	pw := serve.NewPromWriter(w)
	b.s.Stats().WritePrometheus(pw, "flserve", "")
}

// clusterBackend adapts a multi-cell cluster.Router; session solves are
// device-routed (pin, else consistent hash), so a session follows its
// device across handoffs.
type clusterBackend struct{ r *cluster.Router }

// NewClusterBackend wraps a cluster router as a session backend.
func NewClusterBackend(r *cluster.Router) Backend { return clusterBackend{r: r} }

func (b clusterBackend) Solve(ctx context.Context, deviceID string, req serve.Request) (serve.Response, int, error) {
	return b.r.Solve(ctx, cluster.CellAuto, deviceID, req)
}

func (b clusterBackend) StatsPayload() any     { return b.r.Stats() }
func (b clusterBackend) Handler() http.Handler { return b.r.Handler() }

func (b clusterBackend) WriteMetrics(w io.Writer) {
	_ = b.r.Stats().WritePrometheus(w)
}
