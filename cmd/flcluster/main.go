// Command flcluster runs the multi-cell allocation cluster: N independent
// per-cell solver services (each with its own cache and worker pool) behind
// a router with consistent-hash device routing, cross-cell device handoff,
// runtime cell add/remove under a control plane, and aggregated stats.
//
// Usage:
//
//	flcluster [-addr :8080] [-cells 4] [-workers 0] [-queue 0]
//	          [-cache 4096] [-ttl 10m] [-timeout 30s]
//	          [-sessions 1024] [-session-ttl 5m]
//	          [-snapshot-dir DIR] [-snapshot-interval 30s]
//
// Endpoints:
//
//	POST   /v1/cells/{id}/solve   solve in an explicit cell (pins the device)
//	POST   /v1/solve              routed by "device_id" (pin, else hash)
//	POST   /v1/solve-batch        many device-routed solves in one body
//	POST   /v1/stream             open a device-routed gain-delta session
//	POST   /v1/stream/{id}/deltas NDJSON deltas in, NDJSON re-solves out
//	DELETE /v1/stream/{id}        close a session
//	POST   /v1/handoff            {"device_id","from_cell","to_cell"}
//	POST   /v1/cells              add a cell (splice + backfill)
//	DELETE /v1/cells/{id}         drain a cell and remove it
//	POST   /v1/cells/{id}/crash   remove a cell WITHOUT draining (failure
//	                              injection); its keyspace re-solves cold
//	                              on the survivors
//	GET    /v1/rebalance/plan     per-cell moved-key counts (dry run)
//	POST   /v1/rebalance          execute the rebalance
//	GET    /v1/health             per-cell rolling windows + SLO standing
//	                              (503 when breached — readiness probe)
//	GET    /v1/autoscale/plan     the health advisor's current recommendation
//	GET    /debug/alerts          the alert-event ring (SLO transitions,
//	                              membership changes, autoscale actions)
//	GET    /v1/version            build/version info (also: -version flag)
//	GET    /v1/stats              aggregate + per-cell + stream + ctrl +
//	                              health (JSON)
//	GET    /metrics               Prometheus text exposition (incl. the
//	                              obs_runtime_* Go vitals)
//	GET    /debug/flight          the flight recorder's wide-event window
//	GET    /debug/incident        one-shot incident bundle (tar.gz)
//
// With -profile-dir DIR the process captures CPU/heap/goroutine/mutex
// pprof profiles into DIR whenever an SLO rule leaves ok (rate-limited by
// -profile-min-interval, bounded retention) and files the capture in the
// alert ring; /debug/incident packs the latest captures into its bundle.
//
// A health evaluator always runs over the cluster, judging per-cell SLO
// rules on rolling windows and advising on scale. With -autoscale the
// advisor's plans are enacted through the control plane: sustained SLO
// breach adds a cell (up to -max-cells), sustained idleness drains the
// least-loaded cell (down to -min-cells), with -scale-cooldown between
// actions.
//
// With -snapshot-dir the process persists whole-cluster snapshots (all
// cells + open sessions) to DIR/flcluster.snap on -snapshot-interval and on
// graceful shutdown, and restores them at boot.
//
// Load is generated by the end-to-end benchmark (bash bench/run.sh), which
// drives this same stack in-process.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		cells   = flag.Int("cells", 4, "number of cells")
		workers = flag.Int("workers", 0, "per-cell solver pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "per-cell queue depth (0 = 4x workers)")
		cache   = flag.Int("cache", 4096, "per-cell solution cache entries")
		ttl     = flag.Duration("ttl", 10*time.Minute, "solution cache TTL")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request default deadline")

		sessions   = flag.Int("sessions", 1024, "max concurrent stream sessions")
		sessionTTL = flag.Duration("session-ttl", 5*time.Minute, "stream session idle TTL")

		autoscale     = flag.Bool("autoscale", false, "enact health advisor plans (add/drain cells) through the control plane")
		minCells      = flag.Int("min-cells", 1, "autoscale: lower bound on cluster size")
		maxCells      = flag.Int("max-cells", 8, "autoscale: upper bound on cluster size")
		healthTick    = flag.Duration("health-tick", 2*time.Second, "health evaluator polling interval")
		scaleCooldown = flag.Duration("scale-cooldown", 30*time.Second, "autoscale: minimum wall time between actions")

		logLevel   = flag.String("log-level", "info", "structured log level (debug|info|warn|error)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		debugAddr  = flag.String("debug-addr", "", "optional debug listen address (net/http/pprof + /debug/traces + /debug/dashboard)")
		traceN     = flag.Int("trace-sample", 16, "retain 1 in N traces in the debug ring (0 disables tracing)")
		traceSlow  = flag.Duration("trace-slow", 0, "slow-solve promotion threshold (0 = 250ms default)")
		spanExport = flag.String("span-export", "", "also POST span batches to this aggregator URL (e.g. a front router's /debug/spans); spans always assemble locally")

		profileDir = flag.String("profile-dir", "", "capture pprof profiles here on SLO breaches (empty disables the trigger)")
		profileCPU = flag.Float64("profile-cpu-seconds", 1.0, "triggered CPU profile sampling window (seconds)")
		profileMin = flag.Duration("profile-min-interval", 2*time.Minute, "minimum interval between triggered captures")

		snapshotDir  = flag.String("snapshot-dir", "", "persist periodic cluster snapshots in this directory and restore at boot (empty disables)")
		snapInterval = flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence (<0 saves only on shutdown)")

		version = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(repro.ObsVersionString())
		return
	}
	if _, err := repro.ObsSetupLogger(os.Stderr, *logLevel, *logJSON); err != nil {
		fmt.Fprintln(os.Stderr, "flcluster:", err)
		os.Exit(1)
	}
	cfg := repro.ClusterConfig{
		Cells: *cells,
		Cell: repro.ServeConfig{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheEntries:   *cache,
			CacheTTL:       *ttl,
			DefaultTimeout: *timeout,
		},
	}
	scfg := repro.StreamConfig{MaxSessions: *sessions, IdleTTL: *sessionTTL}

	hcfg := repro.HealthConfig{
		Tick: *healthTick,
		Advisor: repro.HealthAdvisorConfig{
			MinCells: *minCells,
			MaxCells: *maxCells,
			Cooldown: *scaleCooldown,
		},
	}

	err := runServer(cfg, scfg, hcfg, *autoscale, *addr, *debugAddr, *traceN, *traceSlow, *spanExport, *snapshotDir, *snapInterval,
		forensicsOpts{Dir: *profileDir, CPUSeconds: *profileCPU, MinInterval: *profileMin})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flcluster:", err)
		os.Exit(1)
	}
}

// forensicsOpts carries the -profile-* flags into runServer.
type forensicsOpts struct {
	Dir         string
	CPUSeconds  float64
	MinInterval time.Duration
}

// newProfileTrigger builds the SLO-triggered pprof capturer from the
// -profile-* flags (nil when -profile-dir is unset — every ProfileTrigger
// method is nil-safe, so wiring stays unconditional).
func newProfileTrigger(opts forensicsOpts) *repro.ProfileTrigger {
	if opts.Dir == "" {
		return nil
	}
	trig, err := repro.NewProfileTrigger(repro.ProfileConfig{
		Dir:         opts.Dir,
		CPUSeconds:  opts.CPUSeconds,
		MinInterval: opts.MinInterval,
		Logger:      slog.Default(),
	})
	if err != nil {
		slog.Warn("profile trigger disabled", "dir", opts.Dir, "err", err)
		return nil
	}
	return trig
}

// runServer serves until SIGINT/SIGTERM: the listener stops accepting,
// one final snapshot flushes (when -snapshot-dir is set), and the process
// exits.
func runServer(cfg repro.ClusterConfig, scfg repro.StreamConfig, hcfg repro.HealthConfig, autoscale bool, addr, debugAddr string, traceN int, traceSlow time.Duration, spanExport string, snapshotDir string, snapInterval time.Duration, fopts forensicsOpts) error {
	var col *repro.ObsCollector
	if traceN > 0 {
		col = repro.NewObsCollector(repro.ObsConfig{SampleEvery: traceN, SlowThreshold: traceSlow})
	}
	scfg.Trace = col

	// Telemetry plane: every finished trace feeds an exporter whose local
	// sink is this process's own aggregator (so /debug/traces always shows
	// assembled traces, including spans POSTed by remote cells); with
	// -span-export the same batches also ship to an upstream aggregator.
	// The flight recorder rides the same sink: every finished trace
	// (sampled or not) derives one wide event.
	var agg *repro.TelemetryAggregator
	var exp *repro.TelemetryExporter
	var flight *repro.FlightRecorder
	if col != nil {
		agg = repro.NewTelemetryAggregator(repro.TelemetryAggregatorConfig{SlowThreshold: traceSlow})
		exp = repro.NewTelemetryExporter(repro.TelemetryExporterConfig{
			Origin: "flcluster",
			Target: spanExport,
			Local:  agg,
			Logger: slog.Default(),
		})
		flight = repro.NewFlightRecorder(0)
		col.SetSink(func(t repro.ObsTraceJSON) {
			exp.Enqueue(t)
			flight.Observe(t)
		})
		defer exp.Close()
	}
	trig := newProfileTrigger(fopts)
	defer trig.Close()

	cl := repro.NewCluster(cfg)
	defer cl.Close()
	mgr := repro.NewStreamManager(repro.NewStreamClusterBackend(cl), scfg)
	defer mgr.Close()
	plane := repro.NewControlPlane(cl, mgr)
	plane.SetLogger(slog.Default())
	if snapshotDir != "" {
		path := filepath.Join(snapshotDir, "flcluster.snap")
		repro.ReplicaBootRestore(path, slog.Default(), func(s repro.ReplicaSnapshot) repro.ReplicaRestoreReport {
			return repro.ReplicaRestoreCluster(cl, mgr, s)
		})
		snapper := repro.NewReplicaSnapshotter(repro.ReplicaSnapshotterConfig{
			Path:     path,
			Interval: snapInterval,
			Capture:  repro.ReplicaCaptureCluster(cl, mgr),
			Logger:   slog.Default(),
		})
		snapper.Start()
		plane.SetSnapshotter(snapper)
		defer func() { // runs before mgr/cl close: their state is still live
			if err := snapper.Close(); err != nil {
				slog.Warn("final snapshot flush failed", "path", path, "err", err)
			} else {
				slog.Info("final snapshot flushed", "path", path)
			}
		}()
	}

	hcfg.Source = repro.HealthRouterSource(cl)
	hcfg.Logger = slog.Default()
	if autoscale {
		hcfg.Actuator = repro.NewCtrlActuator(plane)
	}
	// Runtime vitals are sampled each tick and judged by the runtime
	// rules; the transition hook fires the profile trigger the moment any
	// rule (cell or process) leaves ok, filing the capture as an alert.
	hcfg.Runtime = func() repro.HealthRuntimeSample {
		v := repro.ReadRuntimeVitals()
		return repro.HealthRuntimeSample{
			Goroutines:             float64(v.Goroutines),
			HeapBytes:              float64(v.HeapBytes),
			GCPauseP99Seconds:      v.GCPauseP99Seconds,
			SchedLatencyP99Seconds: v.SchedLatencyP99Seconds,
		}
	}
	var ev *repro.HealthEvaluator
	hcfg.OnTransition = func(t repro.HealthTransition) {
		if t.To == repro.HealthStateOK {
			return
		}
		if rec, ok := trig.Capture(t.Rule + "-" + string(t.To)); ok {
			ev.RecordEvent("profile", t.Cell,
				fmt.Sprintf("profiles captured in %s (rule %s %s→%s)", rec.Dir, t.Rule, t.From, t.To))
		}
	}
	ev = repro.NewHealthEvaluator(hcfg)
	ev.Start()
	defer ev.Close()
	plane.SetEvents(ev)

	sections := []repro.IncidentSection{
		{Name: "alerts", Fetch: func() any { return ev.Alerts() }},
		{Name: "health", Fetch: func() any { return ev.Health() }},
		{Name: "autoscale_plan", Fetch: func() any { return ev.Plan() }},
		{Name: "stats", Fetch: func() any { return cl.Stats() }},
		{Name: "ctrl", Fetch: func() any { return plane.Stats() }},
	}
	if agg != nil {
		sections = append(sections, repro.IncidentSection{Name: "traces", Fetch: func() any {
			return agg.Assembled(repro.ObsTraceQuery{Limit: 32})
		}})
	}
	incident := repro.IncidentHandler(repro.IncidentBundleConfig{
		Origin:   "flcluster",
		Flight:   flight,
		Profiles: trig,
		Sections: sections,
	})

	mc := repro.ObsMiddlewareConfig{
		Flight:   flight.Handler(),
		Incident: incident,
		Metrics:  []func(io.Writer) error{repro.WriteRuntimePrometheus, flight.WritePrometheus, trig.WritePrometheus},
	}
	if agg != nil {
		mc.Traces = repro.TelemetryTracesHandler(col, agg)
		mc.Spans = agg.IngestHandler()
		mc.StatsSections = map[string]func() any{
			"telemetry": func() any {
				return map[string]any{
					"exporter":   exp.StatsJSON(),
					"aggregator": agg.StatsJSON(),
				}
			},
			"forensics": func() any {
				return map[string]any{
					"flight":   flight.StatsJSON(),
					"profiles": trig.StatsJSON(),
				}
			},
		}
		mc.Metrics = append(mc.Metrics, exp.WritePrometheus, agg.WritePrometheus)
	}
	httpSrv := &http.Server{Addr: addr, Handler: repro.ObsMiddlewareWith(col, mc, ev.Handler(plane.Handler(repro.StreamHandler(mgr))))}
	var debugSrv *http.Server
	if debugAddr != "" {
		dash := repro.TelemetryDashboardConfig{Sources: []repro.TelemetrySource{
			{Name: "health", Fetch: func() any { return ev.Health() }},
			{Name: "alerts", Fetch: func() any { return ev.Alerts() }},
			{Name: "autoscale_plan", Fetch: func() any { return ev.Plan() }},
			{Name: "cluster", Fetch: func() any { return cl.Stats() }},
			{Name: "stream", Fetch: func() any { return mgr.Stats() }},
			{Name: "ctrl", Fetch: func() any { return plane.Stats() }},
			{Name: "runtime", Fetch: func() any { return repro.ReadRuntimeVitals() }},
			{Name: "flight", Fetch: func() any { return flight.StatsJSON() }},
		}}
		if agg != nil {
			dash.Sources = append(dash.Sources,
				repro.TelemetrySource{Name: "traces", Fetch: func() any {
					return agg.Assembled(repro.ObsTraceQuery{Limit: 8})
				}},
				repro.TelemetrySource{Name: "telemetry", Fetch: func() any {
					return map[string]any{
						"exporter":   exp.StatsJSON(),
						"aggregator": agg.StatsJSON(),
					}
				}})
		}
		debugSrv = &http.Server{Addr: debugAddr, Handler: repro.TelemetryDebugMux(repro.TelemetryDebugMuxConfig{
			Collector:  col,
			Aggregator: agg,
			Dashboard:  &dash,
			Flight:     flight,
			Incident:   incident,
		})}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				slog.Warn("debug listener failed", "addr", debugAddr, "err", err)
			}
		}()
		slog.Info("debug listener up", "addr", debugAddr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		if debugSrv != nil {
			_ = debugSrv.Shutdown(shutdownCtx)
		}
	}()

	mode := "advise-only"
	if autoscale {
		mode = "enacting"
	}
	fmt.Printf("flcluster: %d cells listening on %s (POST /v1/cells/{id}/solve, POST /v1/solve, POST /v1/stream, POST /v1/handoff, POST/DELETE /v1/cells, POST /v1/rebalance, GET /v1/health, GET /v1/autoscale/plan, GET /debug/alerts, GET /v1/version, GET /v1/stats, GET /metrics); autoscale %s\n",
		cl.Cells(), addr, mode)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
