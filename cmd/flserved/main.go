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
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/forensics"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/stream"
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
		fmt.Println(obs.VersionString())
		return
	}
	if _, err := obs.SetupDefault(os.Stderr, *logLevel, *logJSON); err != nil {
		fmt.Fprintln(os.Stderr, "flserved:", err)
		os.Exit(1)
	}

	n := node.New(node.Config{
		Origin:           "flserved",
		Addr:             *addr,
		DebugAddr:        *debugAddr,
		TraceSample:      *traceN,
		TraceSlow:        *traceSlow,
		SpanExport:       *spanExport,
		Profile:          forensics.ProfileConfig{Dir: *profileDir, CPUSeconds: *profileCPU, MinInterval: *profileMin},
		SnapshotDir:      *snapshotDir,
		SnapshotInterval: *snapInterval,
	})
	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		CacheTTL:       *ttl,
		DefaultTimeout: *timeout,
	})
	mgr := stream.NewManager(stream.NewServeBackend(srv), stream.Config{MaxSessions: *sessions, IdleTTL: *sessionTTL, Trace: n.Collector()})

	// Serve until SIGINT/SIGTERM: the listener stops accepting, one final
	// snapshot flushes (when -snapshot-dir is set), and the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := n.Run(ctx, node.Backend{
		Stream:       mgr,
		Health:       health.Config{Source: health.ServerSource(srv), Tick: *healthTick},
		Stats:        func() any { return srv.Stats() },
		SnapshotFile: "flserved.snap",
		Capture:      replica.CaptureServer(srv, mgr),
		Restore:      func(s replica.Snapshot) replica.RestoreReport { return replica.RestoreServer(srv, mgr, s) },
		Banner:       fmt.Sprintf("flserved: listening on %s (POST /v1/solve, POST /v1/stream, GET /v1/health, GET /v1/stats)\n", *addr),
	})
	stop()
	mgr.Close()
	srv.Close()
	n.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flserved:", err)
		os.Exit(1)
	}
}
