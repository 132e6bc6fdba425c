// Command flcluster runs the multi-cell allocation cluster: N independent
// per-cell solver services (each with its own cache and worker pool) behind
// a router with consistent-hash device routing, cross-cell device handoff,
// runtime cell add/remove under a control plane, and aggregated stats.
//
// Usage:
//
//	flcluster [-addr :8080] [-cells 4] [-workers 0] [-queue 0]
//	          [-cache 4096] [-ttl 10m] [-timeout 30s] [-gainres 0.25]
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
// Load-generator mode replays drifting per-device scenarios against an
// in-process instance of the same HTTP stack, migrating devices between
// cells at a configurable rate and reporting client-side source counts
// plus the cluster's own counters:
//
//	flcluster -loadgen 300 [-cells 4] [-devices 12] [-n 12] [-drift 0.05]
//	          [-repeat 0.3] [-migrate 0.1] [-conc 8] [-seed 1] [-batch 0]
//	          [-stream] [-deltadev 3] [-churn 0]
//
// With -batch B each worker replays its devices through POST
// /v1/solve-batch in bulk-priority chunks of B instances.
//
// With -churn K the replay runs under membership churn: a control-plane
// goroutine performs K add-cell/drain-cell cycles against the live admin
// endpoints while the workers keep soliciting device-routed solves, so
// mass migrations, ring-generation bumps and epoch-checked rerouting all
// happen mid-traffic (per-request mode; -migrate is forced to 0, mobility
// comes from the drains).
//
// With -crash K the replay instead runs under failure injection: the
// chaos goroutine performs K add-cell/crash-cell cycles, removing cells
// WITHOUT draining them; the dead cells' devices reroute to survivors and
// re-solve cold there.
//
// With -snapshot-dir (server mode) the process persists whole-cluster
// snapshots (all cells + open sessions) to DIR/flcluster.snap on
// -snapshot-interval and on graceful shutdown, and restores them at boot.
//
// Each device owns a base scenario; every request is, with probability
// -repeat, an exact replay of that device's previous instance (exercising
// the cache and, across a migration, the handoff-carried cache entry),
// otherwise a fresh log-normal drift of its gains (a cold solve unless the
// drift stays inside the gain buckets). With probability -migrate the device
// first hands off to a random other cell.
//
// With -loadgen N -wave the replay instead runs a traffic wave against an
// autoscaling cluster: a hot phase of N cache-defeating solves at full
// concurrency (driving queue waits over the SLO until the advisor adds
// cells), then silence until the advisor drains the cluster back down to
// -min-cells. The run reports peak/final cell counts, the health and plan
// endpoints, and the alert ring.
//
// With -stream every device instead opens one delta session and replays
// sparse NDJSON gain deltas (-deltadev gains per update) down a live
// connection; migrations fire POST /v1/handoff between deltas of the SAME
// open session, exercising session survival across cross-cell handoff —
// the post-move deltas must keep re-solving on the destination cell.
package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
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
		gainres = flag.Float64("gainres", 0.25, "channel-gain fingerprint bucket (dB)")

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

		loadgen  = flag.Int("loadgen", 0, "replay this many requests and exit")
		devices  = flag.Int("devices", 12, "loadgen: distinct devices (each owns a scenario)")
		n        = flag.Int("n", 12, "loadgen: FL devices per scenario")
		drift    = flag.Float64("drift", 0.05, "loadgen: per-request log-normal gain drift (nepers)")
		repeat   = flag.Float64("repeat", 0.3, "loadgen: probability of replaying the previous instance")
		migrate  = flag.Float64("migrate", 0.1, "loadgen: per-request device-migration probability")
		conc     = flag.Int("conc", 8, "loadgen: concurrent clients")
		seed     = flag.Int64("seed", 1, "loadgen: RNG seed")
		batch    = flag.Int("batch", 0, "loadgen: replay through POST /v1/solve-batch in batches of this size (0 = per-request /v1/solve)")
		stream   = flag.Bool("stream", false, "loadgen: replay through per-device NDJSON delta sessions (POST /v1/stream)")
		deltadev = flag.Int("deltadev", 3, "loadgen -stream: devices drifted per delta")
		churn    = flag.Int("churn", 0, "loadgen: add+drain this many cells mid-replay (per-request mode)")
		wave     = flag.Bool("wave", false, "loadgen: autoscale traffic wave (hot phase, then idle until the cluster drains back)")
		crash    = flag.Int("crash", 0, "loadgen: add+crash this many cells mid-replay WITHOUT draining (per-request mode)")

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
	if *churn > 0 && (*stream || *batch > 0) {
		fmt.Fprintln(os.Stderr, "flcluster: -churn only composes with the per-request loadgen (no -stream/-batch)")
		os.Exit(2)
	}
	if *wave && (*stream || *batch > 0 || *churn > 0) {
		fmt.Fprintln(os.Stderr, "flcluster: -wave only composes with the per-request loadgen (no -stream/-batch/-churn)")
		os.Exit(2)
	}
	if *crash > 0 && (*stream || *batch > 0 || *churn > 0 || *wave) {
		fmt.Fprintln(os.Stderr, "flcluster: -crash only composes with the per-request loadgen (no -stream/-batch/-churn/-wave)")
		os.Exit(2)
	}

	cfg := repro.ClusterConfig{
		Cells: *cells,
		Cell: repro.ServeConfig{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheEntries:   *cache,
			CacheTTL:       *ttl,
			DefaultTimeout: *timeout,
			Quantization:   repro.ServeQuantization{GainResolutionDB: *gainres},
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

	var err error
	switch {
	case *loadgen > 0 && *stream:
		err = runStreamLoadgen(cfg, scfg, *loadgen, *devices, *n, *drift, *migrate, *conc, *seed, *deltadev)
	case *loadgen > 0 && *wave:
		err = runAutoscaleWave(cfg, hcfg, *autoscale, *loadgen, *devices, *n, *drift, *conc, *seed,
			forensicsOpts{Dir: *profileDir, CPUSeconds: *profileCPU, MinInterval: *profileMin})
	case *loadgen > 0:
		err = runLoadgen(cfg, *loadgen, *devices, *n, *drift, *repeat, *migrate, *conc, *seed, *batch, *churn, *crash)
	default:
		err = runServer(cfg, scfg, hcfg, *autoscale, *addr, *debugAddr, *traceN, *traceSlow, *spanExport, *snapshotDir, *snapInterval,
			forensicsOpts{Dir: *profileDir, CPUSeconds: *profileCPU, MinInterval: *profileMin})
	}
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

// device is one loadgen actor: a scenario owner that drifts, repeats and
// migrates. Each device is driven by exactly one worker goroutine, so its
// fields need no locking.
type device struct {
	id       string
	base     *repro.System
	lastReq  *repro.SolveRequestJSON // previous instance, replayed on repeats
	lastCell int                     // cell that served the last response, -1 before any
}

// runLoadgen replays total requests from `devices` drifting devices over
// the full HTTP stack of an in-process cluster. batchSize > 0 groups each
// worker's stream into POST /v1/solve-batch chunks of that size; churn > 0
// mounts the control plane and performs that many add/drain cycles against
// the admin endpoints while the replay runs.
func runLoadgen(cfg repro.ClusterConfig, total, devices, n int, drift, repeat, migrate float64, conc int, seed int64, batchSize, churn, crash int) error {
	cl := repro.NewCluster(cfg)
	defer cl.Close()
	handler := cl.Handler()
	if churn > 0 || crash > 0 {
		// Drains repin devices wholesale (and crashes invalidate pins);
		// manual per-device migration on top would just fight the control
		// plane for the same pins.
		migrate = 0
		handler = repro.NewControlPlane(cl, nil).Handler(handler)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	if devices < 1 {
		devices = 1
	}
	// Each device is driven by exactly one worker; more workers than
	// devices would leave workers with no devices but a share of the
	// request budget, silently shrinking the run.
	if conc > devices {
		conc = devices
	}
	devs := make([]*device, devices)
	for d := range devs {
		sc := repro.DefaultScenario()
		sc.N = n
		base, err := sc.Build(rand.New(rand.NewSource(seed + int64(d))))
		if err != nil {
			return err
		}
		devs[d] = &device{id: fmt.Sprintf("dev-%d", d), base: base, lastCell: -1}
	}

	// Partition devices among workers so each device's request/handoff
	// sequence stays ordered; counts merge after the join.
	type tally struct {
		ok, fail, handoffs int64
		cache, cold        int64
		err                error
	}
	tallies := make([]tally, conc)
	var wg sync.WaitGroup
	began := time.Now()

	// The churn driver adds a cell, lets traffic land on it, then drains a
	// random cell — membership changes racing live device-routed solves.
	churnStop := make(chan struct{})
	churnDone := make(chan churnSummary, 1)
	if churn > 0 {
		go runChurn(ts.URL, cfg.Cells, churn, seed+777, churnStop, churnDone)
	}
	crashStop := make(chan struct{})
	crashDone := make(chan crashSummary, 1)
	if crash > 0 {
		go runCrashChaos(ts.URL, cfg.Cells, crash, seed+778, crashStop, crashDone)
	}
	for wkr := 0; wkr < conc; wkr++ {
		var mine []*device
		for d := wkr; d < devices; d += conc {
			mine = append(mine, devs[d])
		}
		share := total / conc
		if wkr < total%conc {
			share++
		}
		wg.Add(1)
		go func(wkr int, mine []*device, share int) {
			defer wg.Done()
			t := &tallies[wkr]
			rng := rand.New(rand.NewSource(seed + 1000*int64(wkr+1)))
			// nextReq draws one device's next request (handoff, repeat or
			// drift), shared by the per-request and batched modes.
			nextReq := func() (*device, *repro.SolveRequestJSON, error) {
				dev := mine[rng.Intn(len(mine))]
				if dev.lastCell >= 0 && cl.Cells() > 1 && rng.Float64() < migrate {
					to := rng.Intn(cl.Cells() - 1)
					if to >= dev.lastCell {
						to++
					}
					if err := postHandoff(ts.URL, dev.id, dev.lastCell, to); err != nil {
						return nil, nil, err
					}
					dev.lastCell = to
					t.handoffs++
				}
				req := dev.lastReq
				if req == nil || rng.Float64() >= repeat {
					req = driftedReq(dev, drift, rng)
					dev.lastReq = req
				}
				return dev, req, nil
			}
			tallySource := func(source string) {
				if source == string(repro.ServeSourceCache) {
					t.cache++
				} else {
					t.cold++
				}
			}
			for done := 0; done < share; {
				if batchSize > 0 {
					size := batchSize
					if left := share - done; size > left {
						size = left
					}
					devs := make([]*device, size)
					batch := repro.SolveBatchRequestJSON{Requests: make([]repro.SolveRequestJSON, size), Priority: "bulk"}
					for k := 0; k < size; k++ {
						dev, req, err := nextReq()
						if err != nil {
							t.err = err
							return
						}
						devs[k], batch.Requests[k] = dev, *req
					}
					out, status, err := postSolveBatch(ts.URL, batch)
					if err != nil {
						t.err = err
						return
					}
					if status != http.StatusOK {
						t.fail += int64(size)
						done += size
						continue
					}
					for k, it := range out.Results {
						if !it.OK {
							t.fail++
							continue
						}
						t.ok++
						devs[k].lastCell = it.Cell
						tallySource(it.Result.Source)
					}
					done += size
					continue
				}
				dev, req, err := nextReq()
				if err != nil {
					t.err = err
					return
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.err = err
					return
				}
				out, status, err := postSolve(ts.URL, body)
				if err != nil {
					t.err = err
					return
				}
				done++
				if status != http.StatusOK {
					t.fail++
					continue
				}
				t.ok++
				dev.lastCell = out.Cell
				tallySource(out.Source)
			}
		}(wkr, mine, share)
	}
	wg.Wait()
	close(churnStop)
	var churned churnSummary
	if churn > 0 {
		churned = <-churnDone
	}
	close(crashStop)
	var crashed crashSummary
	if crash > 0 {
		crashed = <-crashDone
	}
	elapsed := time.Since(began)
	var agg tally
	for i := range tallies {
		if tallies[i].err != nil {
			return tallies[i].err
		}
		agg.ok += tallies[i].ok
		agg.fail += tallies[i].fail
		agg.handoffs += tallies[i].handoffs
		agg.cache += tallies[i].cache
		agg.cold += tallies[i].cold
	}

	stats, err := fetchStats(ts.URL)
	if err != nil {
		return err
	}
	mode := "per-request"
	if batchSize > 0 {
		mode = fmt.Sprintf("batched x%d", batchSize)
	}
	if churn > 0 {
		mode += fmt.Sprintf(", churn x%d", churn)
	}
	if crash > 0 {
		mode += fmt.Sprintf(", crash x%d", crash)
	}
	fmt.Printf("loadgen (%s): %d requests (%d ok, %d failed), %d handoffs in %.3fs = %.1f req/s over %d clients, %d devices, %d cells\n",
		mode, agg.ok+agg.fail, agg.ok, agg.fail, agg.handoffs, elapsed.Seconds(),
		float64(agg.ok+agg.fail)/elapsed.Seconds(), conc, devices, cl.Cells())
	fmt.Printf("client sources: %d cache, %d cold\n", agg.cache, agg.cold)
	a := stats.Aggregate
	fmt.Printf("cluster: hits %d, misses %d, cold %d, deduped %d, rejected %d, handoffs %d (results %d), cache entries %d\n",
		a.Hits, a.Misses, a.ColdSolves, a.Deduped, a.Rejected,
		a.Handoffs, a.MigratedResults, a.CacheEntries)
	fmt.Printf("routing: explicit %d, pinned %d, hashed %d; solve latency p50 %.1f ms, p99 %.1f ms\n",
		a.RoutedExplicit, a.RoutedPinned, a.RoutedHashed, a.SolveP50*1e3, a.SolveP99*1e3)
	if churn > 0 {
		if churned.err != nil {
			return fmt.Errorf("churn driver: %w", churned.err)
		}
		fmt.Printf("churn: %d cells added, %d drained (devices moved %d, results migrated %d), final cells %v, ring generation %d, rerouted %d\n",
			churned.added, churned.drained, churned.movedDevices, churned.migratedResults,
			cl.CellIDs(), a.Generation, a.Rerouted)
	}
	if crash > 0 {
		if crashed.err != nil {
			return fmt.Errorf("crash driver: %w", crashed.err)
		}
		fmt.Printf("crash: %d cells added, %d crashed without drain; final cells %v, ring generation %d, rerouted %d\n",
			crashed.added, crashed.crashed, cl.CellIDs(), a.Generation, a.Rerouted)
	}
	for _, c := range stats.Cells {
		fmt.Printf("  cell %d: requests %d, hits %d, cold %d, cache %d\n",
			c.Cell, c.Requests, c.Hits, c.ColdSolves, c.CacheEntries)
	}
	return nil
}

// runAutoscaleWave drives a traffic wave against an autoscaling cluster:
// a hot phase of cache-defeating solves at full concurrency until the
// health advisor's sustained-breach signal adds cells, then silence until
// the sustained-idle signal drains the cluster back to its minimum. The
// whole loop — rolling windows, SLO hysteresis, advisor, control-plane
// enactment — runs exactly as in server mode; the wave just supplies the
// traffic shape. Without -autoscale the advisor only reports (and the run
// skips the drain-back wait, since nothing will act).
func runAutoscaleWave(cfg repro.ClusterConfig, hcfg repro.HealthConfig, autoscale bool, total, devices, n int, drift float64, conc int, seed int64, fopts forensicsOpts) error {
	cl := repro.NewCluster(cfg)
	defer cl.Close()
	plane := repro.NewControlPlane(cl, nil)
	plane.SetLogger(slog.Default())

	// Forensics ride along even in the demo: every request feeds the
	// flight recorder, breaches trip the profile trigger (with
	// -profile-dir), and the wave closes by downloading its own
	// /debug/incident bundle — the transcript in README's "Incident
	// forensics" section is this output.
	col := repro.NewObsCollector(repro.ObsConfig{SampleEvery: 1})
	flight := repro.NewFlightRecorder(0)
	col.SetSink(flight.Observe)
	trig := newProfileTrigger(fopts)
	defer trig.Close()

	// Tighter-than-server hysteresis so the wave turns around in seconds
	// on a fast -health-tick; bounds, tick and cooldown come from flags.
	hcfg.Source = repro.HealthRouterSource(cl)
	hcfg.Logger = slog.Default()
	if autoscale {
		hcfg.Actuator = repro.NewCtrlActuator(plane)
	}
	hcfg.WindowTicks = 8
	hcfg.BreachAfter = 2
	hcfg.ClearAfter = 2
	hcfg.Advisor.ScaleUpAfter = 2
	hcfg.Advisor.ScaleDownAfter = 4
	// The wave's scaling story is queue pressure: judge only the latency
	// and error SLOs, so the zero hit rate of cache-defeating traffic
	// doesn't trip the cache-hit floor and muddy what drove the adds.
	hcfg.Rules = []repro.HealthRule{}
	for _, r := range repro.HealthDefaultRules() {
		if r.Metric != repro.HealthMetricCacheHitRate {
			hcfg.Rules = append(hcfg.Rules, r)
		}
	}
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
	incident := repro.IncidentHandler(repro.IncidentBundleConfig{
		Origin:   "flcluster-wave",
		Flight:   flight,
		Profiles: trig,
		Sections: []repro.IncidentSection{
			{Name: "alerts", Fetch: func() any { return ev.Alerts() }},
			{Name: "health", Fetch: func() any { return ev.Health() }},
			{Name: "autoscale_plan", Fetch: func() any { return ev.Plan() }},
			{Name: "stats", Fetch: func() any { return cl.Stats() }},
		},
	})
	mc := repro.ObsMiddlewareConfig{
		Flight:   flight.Handler(),
		Incident: incident,
		Metrics:  []func(io.Writer) error{repro.WriteRuntimePrometheus, flight.WritePrometheus, trig.WritePrometheus},
	}
	ts := httptest.NewServer(repro.ObsMiddlewareWith(col, mc, ev.Handler(plane.Handler(cl.Handler()))))
	defer ts.Close()

	if devices < 1 {
		devices = 1
	}
	if conc > devices {
		conc = devices
	}
	devs := make([]*device, devices)
	for d := range devs {
		sc := repro.DefaultScenario()
		sc.N = n
		base, err := sc.Build(rand.New(rand.NewSource(seed + int64(d))))
		if err != nil {
			return err
		}
		devs[d] = &device{id: fmt.Sprintf("dev-%d", d), base: base, lastCell: -1}
	}

	// Peak-cell monitor: membership moves on the evaluator's clock, not the
	// request path, so sample it continuously.
	monStop := make(chan struct{})
	monDone := make(chan int, 1)
	go func() {
		peak := cl.Cells()
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-monStop:
				monDone <- peak
				return
			case <-tk.C:
				if c := cl.Cells(); c > peak {
					peak = c
				}
			}
		}
	}()

	// Hot phase: every request is a fresh drift (no repeats), so nothing
	// caches and every solve queues behind the worker pool.
	type tally struct {
		ok, fail int64
		err      error
	}
	tallies := make([]tally, conc)
	var wg sync.WaitGroup
	began := time.Now()
	for wkr := 0; wkr < conc; wkr++ {
		var mine []*device
		for d := wkr; d < devices; d += conc {
			mine = append(mine, devs[d])
		}
		share := total / conc
		if wkr < total%conc {
			share++
		}
		wg.Add(1)
		go func(wkr int, mine []*device, share int) {
			defer wg.Done()
			t := &tallies[wkr]
			rng := rand.New(rand.NewSource(seed + 1000*int64(wkr+1)))
			for done := 0; done < share; done++ {
				dev := mine[rng.Intn(len(mine))]
				body, err := json.Marshal(driftedReq(dev, drift, rng))
				if err != nil {
					t.err = err
					return
				}
				out, status, err := postSolve(ts.URL, body)
				if err != nil {
					t.err = err
					return
				}
				if status != http.StatusOK {
					t.fail++
					continue
				}
				t.ok++
				dev.lastCell = out.Cell
			}
		}(wkr, mine, share)
	}
	wg.Wait()
	hotElapsed := time.Since(began)
	var agg tally
	for i := range tallies {
		if tallies[i].err != nil {
			return tallies[i].err
		}
		agg.ok += tallies[i].ok
		agg.fail += tallies[i].fail
	}
	hotHealth, err := fetchHealth(ts.URL)
	if err != nil {
		return err
	}
	hotCells := cl.Cells()

	// Idle phase: no traffic at all. Wait for the advisor to walk the
	// cluster back down to MinCells, one cooldown-spaced drain at a time.
	minCells := hcfg.Advisor.MinCells
	if minCells < 1 {
		minCells = 1
	}
	deadline := time.Now().Add(time.Duration(hotCells)*hcfg.Advisor.Cooldown + 30*time.Second)
	drained := true
	for autoscale && cl.Cells() > minCells {
		if time.Now().After(deadline) {
			drained = false
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(monStop)
	peak := <-monDone
	// Let the evaluator tick past the final membership change before
	// snapshotting, so the report reflects the settled cluster.
	time.Sleep(2 * hcfg.Tick)

	finalHealth, err := fetchHealth(ts.URL)
	if err != nil {
		return err
	}
	plan, err := fetchPlan(ts.URL)
	if err != nil {
		return err
	}
	alerts, alertsTotal, err := fetchAlerts(ts.URL)
	if err != nil {
		return err
	}
	ps := plane.Stats()

	fmt.Printf("wave: hot phase %d requests (%d ok, %d failed) over %d clients in %.2fs = %.1f req/s\n",
		agg.ok+agg.fail, agg.ok, agg.fail, conc, hotElapsed.Seconds(),
		float64(agg.ok+agg.fail)/hotElapsed.Seconds())
	fmt.Printf("wave: cells %d -> peak %d -> final %d (autoscale adds %d, drains %d; bounds [%d,%d])\n",
		cfg.Cells, peak, cl.Cells(), ps.AutoscaleAdds, ps.AutoscaleDrains,
		minCells, hcfg.Advisor.MaxCells)
	fmt.Printf("health: after hot phase %s (%d cells), final %s (%d cells)\n",
		hotHealth.Status, len(hotHealth.Cells), finalHealth.Status, len(finalHealth.Cells))
	fmt.Printf("plan: action=%s cells=%d reason=%q\n", plan.Action, plan.Cells, plan.Reason)
	fmt.Printf("alerts (%d total, %d retained), oldest first:\n", alertsTotal, len(alerts))
	const maxAlertLines = 40
	if len(alerts) > maxAlertLines {
		fmt.Printf("  ... %d earlier events elided ...\n", len(alerts)-maxAlertLines)
		alerts = alerts[:maxAlertLines]
	}
	for i := len(alerts) - 1; i >= 0; i-- {
		fmt.Printf("  [%s] %s\n", alerts[i].Kind, alerts[i].Message)
	}

	// One-shot forensics: download the incident bundle this wave produced
	// and list its table of contents, exactly as an operator would.
	fs := flight.StatsJSON()
	ps2 := trig.StatsJSON()
	fmt.Printf("forensics: flight observed %d events (%d retained, %d dropped); profiles captured %d, suppressed %d\n",
		fs.Observed, fs.Retained, fs.Dropped, ps2.Captures, ps2.Suppressed)
	size, names, err := fetchIncident(ts.URL)
	if err != nil {
		return fmt.Errorf("wave: incident bundle: %w", err)
	}
	fmt.Printf("incident: GET /debug/incident -> %d bytes (tar.gz, %d entries):\n", size, len(names))
	for _, name := range names {
		fmt.Printf("  %s\n", name)
	}
	if !drained {
		return fmt.Errorf("wave: cluster did not drain back to %d cells before deadline (now %d)", minCells, cl.Cells())
	}
	return nil
}

// fetchIncident downloads GET /debug/incident and returns the compressed
// size plus the bundle's table of contents in archive order.
func fetchIncident(baseURL string) (int, []string, error) {
	resp, err := http.Get(baseURL + "/debug/incident")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	var names []string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, err
		}
		names = append(names, hdr.Name)
	}
	return len(raw), names, nil
}

// fetchHealth decodes GET /v1/health (any status — breached answers 503).
func fetchHealth(baseURL string) (repro.HealthJSON, error) {
	var h repro.HealthJSON
	resp, err := http.Get(baseURL + "/v1/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// fetchPlan decodes GET /v1/autoscale/plan.
func fetchPlan(baseURL string) (repro.AutoscalePlan, error) {
	var p repro.AutoscalePlan
	resp, err := http.Get(baseURL + "/v1/autoscale/plan")
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&p)
	return p, err
}

// fetchAlerts decodes GET /debug/alerts (newest first).
func fetchAlerts(baseURL string) ([]repro.HealthAlert, int64, error) {
	var body struct {
		Alerts []repro.HealthAlert `json:"alerts"`
		Total  int64               `json:"total"`
	}
	resp, err := http.Get(baseURL + "/debug/alerts")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.Alerts, body.Total, err
}

// churnSummary is what the churn driver hands back after the replay.
type churnSummary struct {
	added, drained  int
	movedDevices    int
	migratedResults int
	err             error
}

// runChurn performs up to `cycles` add-cell/drain-cell rounds against the
// live admin API, pausing briefly between membership changes so traffic
// actually lands on each configuration, and stops early when the replay
// finishes.
func runChurn(baseURL string, initialCells, cycles int, seed int64, stop <-chan struct{}, done chan<- churnSummary) {
	var sum churnSummary
	defer func() { done <- sum }()
	rng := rand.New(rand.NewSource(seed))
	cells := make([]int, initialCells)
	for i := range cells {
		cells[i] = i
	}
	pause := func() bool {
		select {
		case <-stop:
			return false
		case <-time.After(25 * time.Millisecond):
			return true
		}
	}
	for i := 0; i < cycles; i++ {
		select {
		case <-stop:
			return
		default:
		}
		var add repro.AddCellReport
		if err := doCtrl(baseURL+"/v1/cells", http.MethodPost, &add); err != nil {
			sum.err = err
			return
		}
		sum.added++
		cells = add.Cells
		if !pause() {
			return
		}
		victim := cells[rng.Intn(len(cells))]
		var drain repro.DrainReport
		if err := doCtrl(fmt.Sprintf("%s/v1/cells/%d", baseURL, victim), http.MethodDelete, &drain); err != nil {
			sum.err = err
			return
		}
		sum.drained++
		sum.movedDevices += drain.Handoff.Devices
		sum.migratedResults += drain.Handoff.MigratedResults
		cells = drain.Cells
		if !pause() {
			return
		}
	}
}

// crashSummary is what the crash-chaos driver hands back after the replay.
type crashSummary struct {
	added, crashed int
	err            error
}

// runCrashChaos performs up to `cycles` add-cell/crash-cell rounds against
// the live admin API: each round adds a fresh cell, lets traffic land on
// the new ring, then crashes a random cell WITHOUT draining it — its state
// dies with it. Stops early when the replay finishes.
func runCrashChaos(baseURL string, initialCells, cycles int, seed int64, stop <-chan struct{}, done chan<- crashSummary) {
	var sum crashSummary
	defer func() { done <- sum }()
	rng := rand.New(rand.NewSource(seed))
	cells := make([]int, initialCells)
	for i := range cells {
		cells[i] = i
	}
	pause := func() bool {
		select {
		case <-stop:
			return false
		case <-time.After(100 * time.Millisecond):
			return true
		}
	}
	for i := 0; i < cycles; i++ {
		select {
		case <-stop:
			return
		default:
		}
		var add repro.AddCellReport
		if err := doCtrl(baseURL+"/v1/cells", http.MethodPost, &add); err != nil {
			sum.err = err
			return
		}
		sum.added++
		cells = add.Cells
		if !pause() {
			return
		}
		victim := cells[rng.Intn(len(cells))]
		var crash repro.CrashReport
		if err := doCtrl(fmt.Sprintf("%s/v1/cells/%d/crash", baseURL, victim), http.MethodPost, &crash); err != nil {
			sum.err = err
			return
		}
		sum.crashed++
		cells = crash.Cells
		if !pause() {
			return
		}
	}
}

// doCtrl fires one body-less admin request and decodes the JSON report.
func doCtrl(url, method string, out any) error {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// driftedReq builds a fresh solve request for the device with log-normally
// drifted gains.
func driftedReq(dev *device, drift float64, rng *rand.Rand) *repro.SolveRequestJSON {
	drifted := *dev.base
	drifted.Devices = append([]repro.Device(nil), dev.base.Devices...)
	for j := range drifted.Devices {
		drifted.Devices[j].Gain *= math.Exp(drift * rng.NormFloat64())
	}
	req := repro.SolveRequestJSON{System: repro.SystemToJSON(&drifted), DeviceID: dev.id}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	return &req
}

func postSolveBatch(baseURL string, batch repro.SolveBatchRequestJSON) (repro.ClusterSolveBatchResponseJSON, int, error) {
	var out repro.ClusterSolveBatchResponseJSON
	body, err := json.Marshal(batch)
	if err != nil {
		return out, 0, err
	}
	resp, err := http.Post(baseURL+"/v1/solve-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return out, resp.StatusCode, err
		}
	}
	return out, resp.StatusCode, nil
}

func postSolve(baseURL string, body []byte) (repro.ClusterSolveResponseJSON, int, error) {
	var out repro.ClusterSolveResponseJSON
	resp, err := http.Post(baseURL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return out, resp.StatusCode, err
		}
	}
	return out, resp.StatusCode, nil
}

func postHandoff(baseURL, deviceID string, from, to int) error {
	body, err := json.Marshal(repro.HandoffRequestJSON{DeviceID: deviceID, FromCell: from, ToCell: to})
	if err != nil {
		return err
	}
	resp, err := http.Post(baseURL+"/v1/handoff", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("handoff %s %d->%d: status %d", deviceID, from, to, resp.StatusCode)
	}
	return nil
}

func fetchStats(baseURL string) (repro.ClusterStats, error) {
	var stats repro.ClusterStats
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&stats)
	return stats, err
}

// streamDev is one loadgen actor in -stream mode: a device that owns an
// open delta session and a live NDJSON connection. Driven by exactly one
// worker goroutine, so no locking.
type streamDev struct {
	id       string
	sys      *repro.System // tracked authoritative gains
	session  string
	conn     *repro.StreamDeltaConn
	lastCell int
	seq      uint64
}

// streamClusterStats is the combined /v1/stats body of a stream-wrapped
// cluster.
type streamClusterStats struct {
	repro.ClusterStats
	Stream repro.StreamSnapshot `json:"stream"`
}

// runStreamLoadgen replays total sparse gain deltas through per-device
// delta sessions over the cluster's HTTP stack. With probability migrate a
// device fires POST /v1/handoff between two deltas of its OPEN session —
// the stream keeps flowing and the post-move re-solves land on the
// destination cell (watch the client cells and post-handoff counts).
func runStreamLoadgen(cfg repro.ClusterConfig, scfg repro.StreamConfig, total, devices, n int, drift, migrate float64, conc int, seed int64, deltaDevs int) error {
	cl := repro.NewCluster(cfg)
	defer cl.Close()
	mgr := repro.NewStreamManager(repro.NewStreamClusterBackend(cl), scfg)
	defer mgr.Close()
	ts := httptest.NewServer(repro.StreamHandler(mgr))
	defer ts.Close()

	if devices < 1 {
		devices = 1
	}
	if conc > devices {
		conc = devices
	}
	if deltaDevs < 1 {
		deltaDevs = 1
	}

	type tally struct {
		ok, fail, handoffs int64
		cache, cold        int64
		postMove           int64
		err                error
	}
	tallies := make([]tally, conc)
	var wg sync.WaitGroup
	began := time.Now()
	for wkr := 0; wkr < conc; wkr++ {
		var mine []int
		for d := wkr; d < devices; d += conc {
			mine = append(mine, d)
		}
		share := total / conc
		if wkr < total%conc {
			share++
		}
		wg.Add(1)
		go func(wkr int, mine []int, share int) {
			defer wg.Done()
			t := &tallies[wkr]
			rng := rand.New(rand.NewSource(seed + 1000*int64(wkr+1)))
			devs := make([]*streamDev, 0, len(mine))
			defer func() {
				for _, dev := range devs {
					if dev.conn != nil {
						dev.conn.Close()
					}
				}
			}()
			// Open one session (and one live delta connection) per device.
			for _, d := range mine {
				sc := repro.DefaultScenario()
				sc.N = n
				sys, err := sc.Build(rand.New(rand.NewSource(seed + int64(d))))
				if err != nil {
					t.err = err
					return
				}
				dev := &streamDev{id: fmt.Sprintf("dev-%d", d), sys: sys}
				openReq := repro.SolveRequestJSON{System: repro.SystemToJSON(sys), DeviceID: dev.id}
				openReq.Weights.W1, openReq.Weights.W2 = 0.5, 0.5
				open, err := repro.StreamOpenSession(ts.URL, openReq)
				if err != nil {
					t.err = err
					return
				}
				dev.session, dev.lastCell = open.SessionID, open.Cell
				dev.conn, err = repro.StreamOpenDeltas(ts.URL, dev.session)
				if err != nil {
					t.err = err
					return
				}
				devs = append(devs, dev)
			}
			for done := 0; done < share; done++ {
				dev := devs[rng.Intn(len(devs))]
				migrated := false
				if cl.Cells() > 1 && rng.Float64() < migrate {
					to := rng.Intn(cl.Cells() - 1)
					if to >= dev.lastCell {
						to++
					}
					if err := postHandoff(ts.URL, dev.id, dev.lastCell, to); err != nil {
						t.err = err
						return
					}
					t.handoffs++
					migrated = true
				}
				dev.seq++
				dj := repro.StreamDeltaJSON{Seq: dev.seq, Gains: make(map[int]float64, deltaDevs)}
				for len(dj.Gains) < deltaDevs && len(dj.Gains) < n {
					i := rng.Intn(n)
					if _, ok := dj.Gains[i]; ok {
						continue
					}
					g := dev.sys.Devices[i].Gain * math.Exp(drift*rng.NormFloat64())
					dj.Gains[i] = g
					dev.sys.Devices[i].Gain = g
				}
				if err := dev.conn.Send(dj); err != nil {
					t.err = err
					return
				}
				u, err := dev.conn.Recv()
				if err != nil {
					t.err = err
					return
				}
				if !u.OK || u.Result == nil {
					t.fail++
					continue
				}
				t.ok++
				dev.lastCell = u.Cell
				if u.Result.Source == string(repro.ServeSourceCache) {
					t.cache++
				} else {
					t.cold++
				}
				if migrated {
					t.postMove++
				}
			}
		}(wkr, mine, share)
	}
	wg.Wait()
	elapsed := time.Since(began)
	var agg tally
	for i := range tallies {
		if tallies[i].err != nil {
			return tallies[i].err
		}
		agg.ok += tallies[i].ok
		agg.fail += tallies[i].fail
		agg.handoffs += tallies[i].handoffs
		agg.cache += tallies[i].cache
		agg.cold += tallies[i].cold
		agg.postMove += tallies[i].postMove
	}

	var stats streamClusterStats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return err
	}
	deltas := agg.ok + agg.fail
	fmt.Printf("loadgen (stream): %d deltas over %d sessions (%d ok, %d failed), %d handoffs in %.3fs = %.1f upd/s, %d cells\n",
		deltas, devices, agg.ok, agg.fail, agg.handoffs, elapsed.Seconds(),
		float64(deltas)/elapsed.Seconds(), cl.Cells())
	fmt.Printf("client sources: %d cache, %d cold\n", agg.cache, agg.cold)
	fmt.Printf("post-handoff deltas: %d\n", agg.postMove)
	a := stats.Aggregate
	fmt.Printf("cluster: hits %d, misses %d, cold %d, handoffs %d (results %d)\n",
		a.Hits, a.Misses, a.ColdSolves, a.Handoffs, a.MigratedResults)
	fmt.Printf("stream:  sessions %d open / %d opened, deltas %d, errors %d\n",
		stats.Stream.ActiveSessions, stats.Stream.SessionsOpened, stats.Stream.Deltas, stats.Stream.DeltaErrors)
	return nil
}
