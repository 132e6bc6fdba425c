// Package node wires one serving process: flserved's single server or
// flcluster's router with its control plane, behind the observability,
// forensics, health and snapshot layers both commands share. It also
// holds the debug half that the one-shot commands (flopt, experiments)
// mount: a trace collector feeding the span exporter and the flight
// recorder, served on the -debug-addr listener.
//
// A serving process is built in this order:
//
//   - the trace collector, whose sink feeds the span exporter (and through
//     it the local aggregator) and the flight recorder;
//   - the SLO-triggered profile capture;
//   - the snapshot boot-restore and the periodic snapshotter;
//   - the health evaluator, which samples runtime vitals each tick and
//     fires the profile capture when a rule leaves ok;
//   - the incident bundle and the middleware around the public API;
//   - the debug listener and the public listener.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/ctrl"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/obs/forensics"
	"repro/internal/obs/telemetry"
	"repro/internal/replica"
	"repro/internal/stream"
)

// shutdownGrace bounds how long a stopping process waits for in-flight
// requests before it closes their connections.
const shutdownGrace = 5 * time.Second

// Config carries the flags the serving commands share.
type Config struct {
	// Origin names the process ("flserved", "flcluster") in span batches
	// and incident bundles.
	Origin string
	// Addr is the public listen address; DebugAddr, when set, the debug
	// listener's (pprof, traces, dashboard, flight, incident).
	Addr      string
	DebugAddr string
	// TraceSample retains 1 in N traces; 0 disables tracing and with it
	// the exporter, the aggregator and the flight recorder. TraceSlow is
	// the slow-trace promotion threshold. SpanExport, when set, also ships
	// span batches to that aggregator URL.
	TraceSample int
	TraceSlow   time.Duration
	SpanExport  string
	// Profile arms the SLO-triggered pprof capture; an empty Dir disables
	// it.
	Profile forensics.ProfileConfig
	// SnapshotDir, when set, restores the backend's snapshot at boot and
	// persists it every SnapshotInterval and on shutdown.
	SnapshotDir      string
	SnapshotInterval time.Duration
}

// Backend is what differs between the serving shapes.
type Backend struct {
	// Stream is the session manager over the server or the router.
	Stream *stream.Manager
	// Plane is the cluster's control plane; nil for a single server. It
	// mounts the membership API, files crash events in the alert ring, and
	// reports the snapshotter.
	Plane *ctrl.Plane
	// Health configures the evaluator: its Source and Tick, and on a
	// cluster its Advisor and the -autoscale Actuator.
	Health health.Config
	// Stats returns the backend's counters for the incident bundle and the
	// dashboard.
	Stats func() any
	// SnapshotFile names the snapshot under Config.SnapshotDir; Capture and
	// Restore move the backend's state out of and into it.
	SnapshotFile string
	Capture      func() replica.Snapshot
	Restore      func(replica.Snapshot) replica.RestoreReport
	// Banner is printed once the public listener is bound.
	Banner string
}

// Node is one serving process. New builds its telemetry; Run (or Start
// and Shutdown) serves a Backend; Close stops the telemetry.
type Node struct {
	cfg Config
	tel
	trig *forensics.ProfileTrigger

	ev       *health.Evaluator
	snapper  *replica.Snapshotter
	snapPath string
	public   *http.Server
	debug    *http.Server
	served   chan error
}

// New builds the process's trace collector, telemetry plane and profile
// trigger. Call Close after the backend has stopped.
func New(cfg Config) *Node {
	n := &Node{cfg: cfg}
	if cfg.TraceSample > 0 {
		n.tel = newTel(cfg.Origin, obs.Config{SampleEvery: cfg.TraceSample, SlowThreshold: cfg.TraceSlow}, cfg.SpanExport, true)
	}
	if cfg.Profile.Dir != "" {
		trig, err := forensics.NewProfileTrigger(cfg.Profile)
		if err != nil {
			slog.Warn("profile trigger disabled", "dir", cfg.Profile.Dir, "err", err)
		}
		n.trig = trig
	}
	return n
}

// Collector is the process's trace collector (nil when tracing is off),
// for the stream manager's config.
func (n *Node) Collector() *obs.Collector { return n.col }

// Close waits for an in-flight profile capture and flushes the span
// exporter.
func (n *Node) Close() {
	n.trig.Close()
	if n.exp != nil {
		n.exp.Close()
	}
}

// Run serves b until ctx ends or the public listener fails, then shuts
// down: the listeners drain, the evaluator stops and one final snapshot
// is flushed while the backend is still live.
func (n *Node) Run(ctx context.Context, b Backend) error {
	if err := n.Start(b); err != nil {
		return err
	}
	fmt.Print(b.Banner)
	var err error
	select {
	case <-ctx.Done():
	case err = <-n.served:
	}
	n.Shutdown()
	return err
}

// Start binds the public listener, restores and starts the snapshotter,
// starts the health evaluator and serves b in the background.
func (n *Node) Start(b Backend) error {
	ln, err := net.Listen("tcp", n.cfg.Addr)
	if err != nil {
		return err
	}

	if n.cfg.SnapshotDir != "" {
		n.snapPath = filepath.Join(n.cfg.SnapshotDir, b.SnapshotFile)
		replica.BootRestore(n.snapPath, nil, b.Restore)
		n.snapper = replica.NewSnapshotter(replica.SnapshotterConfig{
			Path:     n.snapPath,
			Interval: n.cfg.SnapshotInterval,
			Capture:  b.Capture,
		})
		n.snapper.Start()
		if b.Plane != nil {
			b.Plane.SetSnapshotter(n.snapper)
		}
	}

	hcfg := b.Health
	hcfg.Runtime = runtimeSample
	hcfg.OnTransition = func(t health.Transition) {
		if t.To == health.StateOK {
			return
		}
		if rec, ok := n.trig.Capture(t.Rule + "-" + string(t.To)); ok {
			n.ev.RecordEvent("profile", t.Cell,
				fmt.Sprintf("profiles captured in %s (rule %s %s→%s)", rec.Dir, t.Rule, t.From, t.To))
		}
	}
	ev := health.New(hcfg)
	n.ev = ev
	ev.Start()

	// The incident bundle and the dashboard show the same documents; on a
	// cluster they add the advisor's plan and the control plane's counters.
	var handler http.Handler = stream.Handler(b.Stream)
	alerts := func() any { return ev.Alerts() }
	healthJSON := func() any { return ev.Health() }
	stats := forensics.Section{Name: "stats", Fetch: b.Stats}
	sections := []forensics.Section{{Name: "alerts", Fetch: alerts}, {Name: "health", Fetch: healthJSON}}
	dash := []telemetry.Source{
		{Name: "health", Fetch: healthJSON},
		{Name: "alerts", Fetch: alerts},
		{Name: "server", Fetch: b.Stats},
		{Name: "stream", Fetch: func() any { return b.Stream.Stats() }},
		{Name: "runtime", Fetch: func() any { return forensics.ReadVitals() }},
		{Name: "flight", Fetch: func() any { return n.flight.StatsJSON() }},
	}
	if p := b.Plane; p != nil {
		p.SetEvents(ev)
		handler = p.Handler(handler)
		plan := func() any { return ev.Plan() }
		ctrlStats := func() any { return p.Stats() }
		sections = append(sections, forensics.Section{Name: "autoscale_plan", Fetch: plan}, stats, forensics.Section{Name: "ctrl", Fetch: ctrlStats})
		dash[2].Name = "cluster"
		dash = append(dash, telemetry.Source{Name: "autoscale_plan", Fetch: plan}, telemetry.Source{Name: "ctrl", Fetch: ctrlStats})
	} else {
		sections = append(sections, stats)
	}

	mc := obs.MiddlewareConfig{
		Flight:  n.flight.Handler(),
		Metrics: []func(io.Writer) error{forensics.WriteRuntimePrometheus, n.flight.WritePrometheus, n.trig.WritePrometheus},
	}
	if agg := n.agg; agg != nil {
		sections = append(sections, forensics.Section{Name: "traces", Fetch: func() any {
			return agg.Assembled(obs.TraceQuery{Limit: 32})
		}})
		telemetryJSON := func() any {
			return map[string]any{"exporter": n.exp.StatsJSON(), "aggregator": agg.StatsJSON()}
		}
		dash = append(dash,
			telemetry.Source{Name: "traces", Fetch: func() any { return agg.Assembled(obs.TraceQuery{Limit: 8}) }},
			telemetry.Source{Name: "telemetry", Fetch: telemetryJSON})
		mc.Traces = telemetry.TracesHandler(n.col, agg)
		mc.Spans = agg.IngestHandler()
		mc.StatsSections = map[string]func() any{
			"telemetry": telemetryJSON,
			"forensics": func() any {
				return map[string]any{"flight": n.flight.StatsJSON(), "profiles": n.trig.StatsJSON()}
			},
		}
		mc.Metrics = append(mc.Metrics, n.exp.WritePrometheus, agg.WritePrometheus)
	}
	mc.Incident = forensics.IncidentHandler(forensics.BundleConfig{
		Origin:   n.cfg.Origin,
		Flight:   n.flight,
		Profiles: n.trig,
		Sections: sections,
	})

	if n.cfg.DebugAddr != "" {
		n.debug = listenDebug(n.cfg.DebugAddr, telemetry.DebugMuxConfig{
			Collector:  n.col,
			Aggregator: n.agg,
			Dashboard:  &telemetry.DashboardConfig{Sources: dash},
			Flight:     n.flight,
			Incident:   mc.Incident,
		})
	}
	n.public = &http.Server{Addr: ln.Addr().String(), Handler: obs.MiddlewareWith(n.col, mc, ev.Handler(handler))}
	n.served = make(chan error, 1)
	go func() { n.served <- n.public.Serve(ln) }()
	return nil
}

// Addr is the bound public address (after Start).
func (n *Node) Addr() string { return n.public.Addr }

// DebugAddr is the bound debug address, or "" when no debug listener
// runs.
func (n *Node) DebugAddr() string {
	if n.debug == nil {
		return ""
	}
	return n.debug.Addr
}

// Shutdown stops the listeners (waiting up to five seconds for in-flight
// requests), the health evaluator and the snapshotter, which flushes one
// final snapshot.
func (n *Node) Shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	_ = n.public.Shutdown(ctx)
	if n.debug != nil {
		_ = n.debug.Shutdown(ctx)
	}
	n.ev.Close()
	if n.snapper != nil {
		if err := n.snapper.Close(); err != nil {
			slog.Warn("final snapshot flush failed", "path", n.snapPath, "err", err)
		} else {
			slog.Info("final snapshot flushed", "path", n.snapPath)
		}
	}
}

// runtimeSample feeds the health evaluator's process-level rules.
func runtimeSample() health.RuntimeSample {
	v := forensics.ReadVitals()
	return health.RuntimeSample{
		Goroutines:             float64(v.Goroutines),
		HeapBytes:              float64(v.HeapBytes),
		GCPauseP99Seconds:      v.GCPauseP99Seconds,
		SchedLatencyP99Seconds: v.SchedLatencyP99Seconds,
	}
}

// tel is a process's trace collector and the sinks it feeds. All fields
// are nil when tracing is off; every method the wiring calls on them is
// nil-safe except the exporter's and the aggregator's.
type tel struct {
	col    *obs.Collector
	agg    *telemetry.Aggregator // serving processes: the local assembled view
	exp    *telemetry.Exporter   // nil when there is nowhere to ship spans
	flight *forensics.FlightRecorder
}

// newTel builds a collector whose sink feeds the flight recorder and, when
// there is a local aggregator (assemble) or a span-export target, the span
// exporter.
func newTel(origin string, cfg obs.Config, spanExport string, assemble bool) tel {
	t := tel{col: obs.NewCollector(cfg), flight: forensics.NewFlightRecorder(0)}
	if assemble {
		t.agg = telemetry.NewAggregator(telemetry.AggregatorConfig{SlowThreshold: cfg.SlowThreshold})
	}
	if assemble || spanExport != "" {
		t.exp = telemetry.NewExporter(telemetry.ExporterConfig{Origin: origin, Target: spanExport, Local: t.agg})
	}
	exp, flight := t.exp, t.flight
	t.col.SetSink(func(tr obs.TraceJSON) {
		if exp != nil {
			exp.Enqueue(tr)
		}
		flight.Observe(tr)
	})
	return t
}

// listenDebug serves the debug mux on addr in the background. A debug
// listener that cannot bind is logged, not fatal.
func listenDebug(addr string, cfg telemetry.DebugMuxConfig) *http.Server {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		slog.Warn("debug listener failed", "addr", addr, "err", err)
		return nil
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: telemetry.DebugMux(cfg)}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Warn("debug listener failed", "addr", addr, "err", err)
		}
	}()
	slog.Info("debug listener up", "addr", addr)
	return srv
}

// Batch wires a one-shot command's telemetry: with spanExport or
// debugAddr set, it starts one always-sampled trace whose finished spans
// feed the flight recorder and, with spanExport, a span exporter; with
// debugAddr it also serves the debug mux (pprof, traces, dashboard,
// flight, incident, /metrics). It returns the trace (nil, whose methods
// no-op, when neither is set) and a func that flushes the exporter.
func Batch(origin, spanExport, debugAddr string) (*obs.Trace, func()) {
	if spanExport == "" && debugAddr == "" {
		return nil, func() {}
	}
	t := newTel(origin, obs.Config{SampleEvery: 1}, spanExport, false)
	_, tr := t.col.StartTrace(context.Background())
	if debugAddr != "" {
		listenDebug(debugAddr, telemetry.DebugMuxConfig{
			Collector: t.col,
			Dashboard: &telemetry.DashboardConfig{Sources: []telemetry.Source{
				{Name: "runtime", Fetch: func() any { return forensics.ReadVitals() }},
				{Name: "flight", Fetch: func() any { return t.flight.StatsJSON() }},
			}},
			Flight:   t.flight,
			Incident: forensics.IncidentHandler(forensics.BundleConfig{Origin: origin, Flight: t.flight}),
			Metrics:  telemetry.MetricsHandler(forensics.WriteRuntimePrometheus, t.flight.WritePrometheus),
		})
	}
	return tr, func() {
		if t.exp != nil {
			t.exp.Close()
		}
	}
}
