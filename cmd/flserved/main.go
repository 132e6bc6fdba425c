// Command flserved runs the allocation service: an HTTP front end over the
// concurrent solver pool of internal/serve, with a fingerprint-keyed
// solution cache.
//
// Usage:
//
//	flserved [-addr :8080] [-workers 0] [-queue 0] [-cache 4096]
//	         [-ttl 10m] [-timeout 30s]
//	         [-sessions 1024] [-session-ttl 5m]
//	         [-snapshot-dir DIR] [-snapshot-interval 30s]
//
// With -snapshot-dir the process persists its solution cache and open
// stream sessions to DIR/flserved.snap on the interval and on graceful
// shutdown, and restores the file at boot — post-restart replays are cache
// hits and clients resume sessions at the next sequence number. A corrupt
// or version-skewed snapshot degrades to a cold start.
//
// Endpoints:
//
//	POST   /v1/solve              {"system": {...}, "weights": {"w1": 0.5, "w2": 0.5}}
//	POST   /v1/solve-batch        {"requests": [...], "priority": "bulk"}
//	POST   /v1/stream             open a gain-delta session (full system once)
//	POST   /v1/stream/{id}/deltas NDJSON deltas in, NDJSON re-solves out
//	DELETE /v1/stream/{id}        close a session
//	GET    /v1/health             rolling-window SLO standing (503 when
//	                              breached — readiness probe)
//	GET    /debug/alerts          the alert-event ring
//	GET    /v1/version            build/version info (also: -version flag)
//	GET    /v1/stats              counters (server + "stream" + "health")
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
// A health evaluator runs over the server (the single-cell analogue of
// flcluster's: the one serve pool is observed as cell 0) — advise-only,
// there is no membership to actuate here.
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
		workers = flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "queue depth (0 = 4x workers)")
		cache   = flag.Int("cache", 4096, "solution cache entries")
		ttl     = flag.Duration("ttl", 10*time.Minute, "solution cache TTL")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request default deadline")

		sessions   = flag.Int("sessions", 1024, "max concurrent stream sessions")
		sessionTTL = flag.Duration("session-ttl", 5*time.Minute, "stream session idle TTL")

		logLevel   = flag.String("log-level", "info", "structured log level (debug|info|warn|error)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		debugAddr  = flag.String("debug-addr", "", "optional debug listen address (net/http/pprof + /debug/traces + /debug/dashboard)")
		traceN     = flag.Int("trace-sample", 16, "retain 1 in N traces in the debug ring (0 disables tracing)")
		traceSlow  = flag.Duration("trace-slow", 0, "slow-solve promotion threshold (0 = 250ms default)")
		spanExport = flag.String("span-export", "", "also POST span batches to this aggregator URL (a front router's /debug/spans); spans always assemble locally")

		healthTick   = flag.Duration("health-tick", 2*time.Second, "health evaluator polling interval")
		snapshotDir  = flag.String("snapshot-dir", "", "persist periodic state snapshots in this directory and restore at boot (empty disables)")
		snapInterval = flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence (<0 saves only on shutdown)")

		profileDir = flag.String("profile-dir", "", "capture pprof profiles here on SLO breaches (empty disables the trigger)")
		profileCPU = flag.Float64("profile-cpu-seconds", 1.0, "triggered CPU profile sampling window (seconds)")
		profileMin = flag.Duration("profile-min-interval", 2*time.Minute, "minimum interval between triggered captures")

		version = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(repro.ObsVersionString())
		return
	}

	if _, err := repro.ObsSetupLogger(os.Stderr, *logLevel, *logJSON); err != nil {
		fmt.Fprintln(os.Stderr, "flserved:", err)
		os.Exit(1)
	}

	cfg := repro.ServeConfig{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		CacheTTL:       *ttl,
		DefaultTimeout: *timeout,
	}
	scfg := repro.StreamConfig{MaxSessions: *sessions, IdleTTL: *sessionTTL}

	err := runServer(cfg, scfg, *healthTick, *addr, *debugAddr, *traceN, *traceSlow, *spanExport, *snapshotDir, *snapInterval,
		forensicsOpts{Dir: *profileDir, CPUSeconds: *profileCPU, MinInterval: *profileMin})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flserved:", err)
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
func runServer(cfg repro.ServeConfig, scfg repro.StreamConfig, healthTick time.Duration, addr, debugAddr string, traceN int, traceSlow time.Duration, spanExport string, snapshotDir string, snapInterval time.Duration, fopts forensicsOpts) error {
	var col *repro.ObsCollector
	if traceN > 0 {
		col = repro.NewObsCollector(repro.ObsConfig{SampleEvery: traceN, SlowThreshold: traceSlow})
	}
	scfg.Trace = col

	// Telemetry plane: finished traces buffer in an exporter that always
	// feeds the local aggregator (own assembled view) and, with -span-export,
	// ships the same batches to a front router's aggregator so this cell's
	// spans land in the router's cross-process traces. The flight recorder
	// rides the same sink: every finished trace (sampled or not) derives
	// one wide event.
	var agg *repro.TelemetryAggregator
	var exp *repro.TelemetryExporter
	var flight *repro.FlightRecorder
	if col != nil {
		agg = repro.NewTelemetryAggregator(repro.TelemetryAggregatorConfig{SlowThreshold: traceSlow})
		exp = repro.NewTelemetryExporter(repro.TelemetryExporterConfig{
			Origin: "flserved",
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

	srv := repro.NewServer(cfg)
	defer srv.Close()
	mgr := repro.NewStreamManager(repro.NewStreamServeBackend(srv), scfg)
	defer mgr.Close()
	if snapshotDir != "" {
		path := filepath.Join(snapshotDir, "flserved.snap")
		repro.ReplicaBootRestore(path, slog.Default(), func(s repro.ReplicaSnapshot) repro.ReplicaRestoreReport {
			return repro.ReplicaRestoreServer(srv, mgr, s)
		})
		snapper := repro.NewReplicaSnapshotter(repro.ReplicaSnapshotterConfig{
			Path:     path,
			Interval: snapInterval,
			Capture:  repro.ReplicaCaptureServer(srv, mgr),
		})
		snapper.Start()
		defer func() { // runs before mgr/srv close: their state is still live
			if err := snapper.Close(); err != nil {
				slog.Warn("final snapshot flush failed", "path", path, "err", err)
			} else {
				slog.Info("final snapshot flushed", "path", path)
			}
		}()
	}
	// The evaluator samples Go runtime vitals each tick (judged by the
	// runtime rules against the whole process), and its transition hook
	// fires the profile trigger: the first moment a rule leaves ok, the
	// evidence (CPU/heap/goroutine/mutex profiles) is captured and the
	// capture is filed in the alert ring next to the breach itself.
	var ev *repro.HealthEvaluator
	ev = repro.NewHealthEvaluator(repro.HealthConfig{
		Source: repro.HealthServerSource(srv),
		Tick:   healthTick,
		Logger: slog.Default(),
		Runtime: func() repro.HealthRuntimeSample {
			v := repro.ReadRuntimeVitals()
			return repro.HealthRuntimeSample{
				Goroutines:             float64(v.Goroutines),
				HeapBytes:              float64(v.HeapBytes),
				GCPauseP99Seconds:      v.GCPauseP99Seconds,
				SchedLatencyP99Seconds: v.SchedLatencyP99Seconds,
			}
		},
		OnTransition: func(t repro.HealthTransition) {
			if t.To == repro.HealthStateOK {
				return
			}
			if rec, ok := trig.Capture(t.Rule + "-" + string(t.To)); ok {
				ev.RecordEvent("profile", t.Cell,
					fmt.Sprintf("profiles captured in %s (rule %s %s→%s)", rec.Dir, t.Rule, t.From, t.To))
			}
		},
	})
	ev.Start()
	defer ev.Close()

	// The incident bundle assembles everything an investigation starts
	// from: the flight window, alert ring, health windows (incl. the
	// convergence observatory inside /v1/stats), assembled slow traces,
	// and the retained profile captures — one GET, one tar.gz.
	sections := []repro.IncidentSection{
		{Name: "alerts", Fetch: func() any { return ev.Alerts() }},
		{Name: "health", Fetch: func() any { return ev.Health() }},
		{Name: "stats", Fetch: func() any { return srv.Stats() }},
	}
	if agg != nil {
		sections = append(sections, repro.IncidentSection{Name: "traces", Fetch: func() any {
			return agg.Assembled(repro.ObsTraceQuery{Limit: 32})
		}})
	}
	incident := repro.IncidentHandler(repro.IncidentBundleConfig{
		Origin:   "flserved",
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
	httpSrv := &http.Server{Addr: addr, Handler: repro.ObsMiddlewareWith(col, mc, ev.Handler(repro.StreamHandler(mgr)))}
	var debugSrv *http.Server
	if debugAddr != "" {
		dash := repro.TelemetryDashboardConfig{Sources: []repro.TelemetrySource{
			{Name: "health", Fetch: func() any { return ev.Health() }},
			{Name: "alerts", Fetch: func() any { return ev.Alerts() }},
			{Name: "server", Fetch: func() any { return srv.Stats() }},
			{Name: "stream", Fetch: func() any { return mgr.Stats() }},
			{Name: "runtime", Fetch: func() any { return repro.ReadRuntimeVitals() }},
			{Name: "flight", Fetch: func() any { return flight.StatsJSON() }},
		}}
		if agg != nil {
			dash.Sources = append(dash.Sources,
				repro.TelemetrySource{Name: "traces", Fetch: func() any {
					return agg.Assembled(repro.ObsTraceQuery{Limit: 8})
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

	fmt.Printf("flserved: listening on %s (POST /v1/solve, POST /v1/stream, GET /v1/health, GET /v1/stats)\n", addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
