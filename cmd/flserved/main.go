// Command flserved runs the allocation service: an HTTP front end over the
// concurrent solver pool of internal/serve, with a fingerprint-keyed
// solution cache.
//
// Usage:
//
//	flserved [-addr :8080] [-workers 0] [-queue 0] [-cache 4096]
//	         [-ttl 10m] [-timeout 30s] [-gainres 0.25]
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
// Load-generator mode replays randomly-drifted copies of the default
// scenario against an in-process instance of the same HTTP stack and prints
// client-side throughput plus the server's own counters:
//
//	flserved -loadgen 200 [-n 15] [-drift 0.05] [-repeat 0.3] [-conc 8]
//	         [-seed 1] [-batch 0] [-stream] [-deltadev 3]
//
// Each request is, with probability -repeat, an exact replay of an earlier
// instance (exercising the cache), otherwise a fresh log-normal drift of
// every channel gain by -drift nepers (a cold solve unless the drift stays
// inside the gain buckets).
// With -batch B the stream is replayed through POST /v1/solve-batch in
// bulk-priority chunks of B instances, amortizing decode and dispatch.
// With -stream each client opens one delta session and replays its share as
// sparse NDJSON gain deltas (-deltadev gains drifted per update) over a
// single live connection, exercising the streaming subsystem's incremental
// re-solve path instead of whole-system re-POSTs.
package main

import (
	"bytes"
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
	"sync/atomic"
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
		gainres = flag.Float64("gainres", 0.25, "channel-gain fingerprint bucket (dB)")

		sessions   = flag.Int("sessions", 1024, "max concurrent stream sessions")
		sessionTTL = flag.Duration("session-ttl", 5*time.Minute, "stream session idle TTL")

		logLevel   = flag.String("log-level", "info", "structured log level (debug|info|warn|error)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		debugAddr  = flag.String("debug-addr", "", "optional debug listen address (net/http/pprof + /debug/traces + /debug/dashboard)")
		traceN     = flag.Int("trace-sample", 16, "retain 1 in N traces in the debug ring (0 disables tracing)")
		traceSlow  = flag.Duration("trace-slow", 0, "slow-solve promotion threshold (0 = 250ms default)")
		spanExport = flag.String("span-export", "", "also POST span batches to this aggregator URL (a front router's /debug/spans); spans always assemble locally")

		loadgen  = flag.Int("loadgen", 0, "replay this many drifted scenarios and exit")
		n        = flag.Int("n", 15, "loadgen: devices per scenario")
		drift    = flag.Float64("drift", 0.05, "loadgen: per-request log-normal gain drift (nepers)")
		repeat   = flag.Float64("repeat", 0.3, "loadgen: probability of replaying an earlier instance")
		conc     = flag.Int("conc", 8, "loadgen: concurrent clients")
		seed     = flag.Int64("seed", 1, "loadgen: RNG seed")
		batch    = flag.Int("batch", 0, "loadgen: replay through POST /v1/solve-batch in batches of this size (0 = per-request /v1/solve)")
		stream   = flag.Bool("stream", false, "loadgen: replay through per-client NDJSON delta sessions (POST /v1/stream)")
		deltadev = flag.Int("deltadev", 3, "loadgen -stream: devices drifted per delta")

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
		Quantization:   repro.ServeQuantization{GainResolutionDB: *gainres},
	}
	scfg := repro.StreamConfig{MaxSessions: *sessions, IdleTTL: *sessionTTL}

	var err error
	switch {
	case *loadgen > 0 && *stream:
		err = runStreamLoadgen(cfg, scfg, *loadgen, *n, *drift, *conc, *seed, *deltadev)
	case *loadgen > 0:
		err = runLoadgen(cfg, *loadgen, *n, *drift, *repeat, *conc, *seed, *batch)
	default:
		err = runServer(cfg, scfg, *healthTick, *addr, *debugAddr, *traceN, *traceSlow, *spanExport, *snapshotDir, *snapInterval,
			forensicsOpts{Dir: *profileDir, CPUSeconds: *profileCPU, MinInterval: *profileMin})
	}
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

// runLoadgen replays total drifted instances against an in-process server
// through the full HTTP stack and reports throughput. batchSize > 0 routes
// the stream through POST /v1/solve-batch in chunks of that size (the bulk
// replay mode); 0 posts one instance per request.
func runLoadgen(cfg repro.ServeConfig, total, n int, drift, repeat float64, conc int, seed int64, batchSize int) error {
	srv := repro.NewServer(cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(seed))
	sc := repro.DefaultScenario()
	sc.N = n
	base, err := sc.Build(rng)
	if err != nil {
		return err
	}

	// Pre-draw the request stream so client goroutines only do I/O.
	reqs := make([]repro.SolveRequestJSON, total)
	var history []repro.SolveRequestJSON
	for i := range reqs {
		if len(history) > 0 && rng.Float64() < repeat {
			reqs[i] = history[rng.Intn(len(history))]
		} else {
			drifted := *base
			drifted.Devices = append([]repro.Device(nil), base.Devices...)
			for j := range drifted.Devices {
				drifted.Devices[j].Gain *= math.Exp(drift * rng.NormFloat64())
			}
			req := repro.SolveRequestJSON{System: repro.SystemToJSON(&drifted)}
			req.Weights.W1, req.Weights.W2 = 0.5, 0.5
			reqs[i] = req
			history = append(history, req)
		}
	}
	// Pre-marshal: per-request bodies, or batch bodies of batchSize items.
	var bodies [][]byte
	path := "/v1/solve"
	if batchSize > 0 {
		path = "/v1/solve-batch"
		for at := 0; at < total; at += batchSize {
			end := at + batchSize
			if end > total {
				end = total
			}
			body, err := json.Marshal(repro.SolveBatchRequestJSON{Requests: reqs[at:end], Priority: "bulk"})
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
	} else {
		for i := range reqs {
			body, err := json.Marshal(reqs[i])
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
	}

	var okCount, failCount atomic.Int64
	var next atomic.Int64
	began := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				// A failed batch round trip fails every instance it
				// carried, so ok+failed always sums to the instance total.
				instances := int64(1)
				if batchSize > 0 {
					instances = int64(batchSize)
					if rem := total - i*batchSize; rem < batchSize {
						instances = int64(rem)
					}
				}
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					failCount.Add(instances)
					continue
				}
				switch {
				case resp.StatusCode != http.StatusOK:
					failCount.Add(instances)
				case batchSize > 0:
					var out repro.SolveBatchResponseJSON
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						failCount.Add(instances)
					} else {
						for _, it := range out.Results {
							if it.OK {
								okCount.Add(1)
							} else {
								failCount.Add(1)
							}
						}
					}
				default:
					okCount.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(began)

	stats, err := fetchStats(ts.URL)
	if err != nil {
		return err
	}
	mode := "per-request"
	if batchSize > 0 {
		mode = fmt.Sprintf("batched x%d", batchSize)
	}
	fmt.Printf("loadgen (%s): %d instances (%d ok, %d failed) in %.3fs = %.1f inst/s over %d clients\n",
		mode, total, okCount.Load(), failCount.Load(), elapsed.Seconds(),
		float64(total)/elapsed.Seconds(), conc)
	fmt.Printf("server:  hits %d, misses %d, cold solves %d, deduped %d, rejected %d, batches %d\n",
		stats.Hits, stats.Misses, stats.ColdSolves, stats.Deduped, stats.Rejected, stats.BatchRequests)
	fmt.Printf("solve latency: p50 %.1f ms, p99 %.1f ms; tracked buckets %d\n",
		stats.SolveP50*1e3, stats.SolveP99*1e3, stats.TrackedBuckets)
	for _, b := range stats.Buckets {
		fmt.Printf("  bucket %s: hits %d, misses %d (hit rate %.0f%%), cold %d\n",
			b.Bucket, b.Hits, b.Misses, 100*b.HitRate, b.ColdSolves)
	}
	return nil
}

func fetchStats(baseURL string) (repro.ServeStats, error) {
	var stats repro.ServeStats
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&stats)
	return stats, err
}

// streamStats is the combined /v1/stats body of a stream-wrapped server.
type streamStats struct {
	repro.ServeStats
	Stream repro.StreamSnapshot `json:"stream"`
}

// runStreamLoadgen replays total sparse gain deltas through per-client
// NDJSON delta sessions over the full HTTP stack: each of the conc clients
// opens one session with its own drifted copy of the default scenario, then
// streams its share of deltas (deltaDevs gains drifted per update) down a
// single live connection, reading each re-solve back before sending the
// next. This is the replay mode of the streaming subsystem — compare its
// inst/s against the plain per-request mode to see what delta re-solves
// save.
func runStreamLoadgen(cfg repro.ServeConfig, scfg repro.StreamConfig, total, n int, drift float64, conc int, seed int64, deltaDevs int) error {
	srv := repro.NewServer(cfg)
	defer srv.Close()
	mgr := repro.NewStreamManager(repro.NewStreamServeBackend(srv), scfg)
	defer mgr.Close()
	ts := httptest.NewServer(repro.StreamHandler(mgr))
	defer ts.Close()

	if conc < 1 {
		conc = 1
	}
	if deltaDevs < 1 {
		deltaDevs = 1
	}
	type tally struct {
		ok, fail    int64
		cache, cold int64
		err         error
	}
	tallies := make([]tally, conc)
	var wg sync.WaitGroup
	began := time.Now()
	for wkr := 0; wkr < conc; wkr++ {
		share := total / conc
		if wkr < total%conc {
			share++
		}
		wg.Add(1)
		go func(wkr, share int) {
			defer wg.Done()
			t := &tallies[wkr]
			rng := rand.New(rand.NewSource(seed + 1000*int64(wkr+1)))
			sc := repro.DefaultScenario()
			sc.N = n
			sys, err := sc.Build(rand.New(rand.NewSource(seed + int64(wkr))))
			if err != nil {
				t.err = err
				return
			}
			openReq := repro.SolveRequestJSON{System: repro.SystemToJSON(sys), DeviceID: fmt.Sprintf("stream-%d", wkr)}
			openReq.Weights.W1, openReq.Weights.W2 = 0.5, 0.5
			open, err := repro.StreamOpenSession(ts.URL, openReq)
			if err != nil {
				t.err = err
				return
			}
			conn, err := repro.StreamOpenDeltas(ts.URL, open.SessionID)
			if err != nil {
				t.err = err
				return
			}
			defer conn.Close()
			for seq := uint64(1); seq <= uint64(share); seq++ {
				d := repro.StreamDeltaJSON{Seq: seq, Gains: make(map[int]float64, deltaDevs)}
				for len(d.Gains) < deltaDevs && len(d.Gains) < n {
					i := rng.Intn(n)
					if _, ok := d.Gains[i]; ok {
						continue
					}
					g := sys.Devices[i].Gain * math.Exp(drift*rng.NormFloat64())
					d.Gains[i] = g
					sys.Devices[i].Gain = g
				}
				if err := conn.Send(d); err != nil {
					t.err = err
					return
				}
				u, err := conn.Recv()
				if err != nil {
					t.err = err
					return
				}
				if !u.OK || u.Result == nil {
					t.fail++
					continue
				}
				t.ok++
				if u.Result.Source == string(repro.ServeSourceCache) {
					t.cache++
				} else {
					t.cold++
				}
			}
		}(wkr, share)
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
		agg.cache += tallies[i].cache
		agg.cold += tallies[i].cold
	}

	var stats streamStats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return err
	}
	deltas := agg.ok + agg.fail
	fmt.Printf("loadgen (stream): %d deltas over %d sessions (%d ok, %d failed) in %.3fs = %.1f upd/s\n",
		deltas, conc, agg.ok, agg.fail, elapsed.Seconds(), float64(deltas)/elapsed.Seconds())
	fmt.Printf("client sources: %d cache, %d cold\n", agg.cache, agg.cold)
	fmt.Printf("server:  hits %d, misses %d, cold solves %d; solve p50 %.1f ms, p99 %.1f ms\n",
		stats.Hits, stats.Misses, stats.ColdSolves, stats.SolveP50*1e3, stats.SolveP99*1e3)
	fmt.Printf("stream:  sessions %d open / %d opened, deltas %d, errors %d\n",
		stats.Stream.ActiveSessions, stats.Stream.SessionsOpened, stats.Stream.Deltas, stats.Stream.DeltaErrors)
	return nil
}
