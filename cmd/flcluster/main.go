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
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/ctrl"
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
		fmt.Println(obs.VersionString())
		return
	}
	if _, err := obs.SetupDefault(os.Stderr, *logLevel, *logJSON); err != nil {
		fmt.Fprintln(os.Stderr, "flcluster:", err)
		os.Exit(1)
	}

	n := node.New(node.Config{
		Origin:           "flcluster",
		Addr:             *addr,
		DebugAddr:        *debugAddr,
		TraceSample:      *traceN,
		TraceSlow:        *traceSlow,
		SpanExport:       *spanExport,
		Profile:          forensics.ProfileConfig{Dir: *profileDir, CPUSeconds: *profileCPU, MinInterval: *profileMin},
		SnapshotDir:      *snapshotDir,
		SnapshotInterval: *snapInterval,
	})
	cl := cluster.New(cluster.Config{
		Cells: *cells,
		Cell: serve.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheEntries:   *cache,
			CacheTTL:       *ttl,
			DefaultTimeout: *timeout,
		},
	})
	mgr := stream.NewManager(stream.NewClusterBackend(cl), stream.Config{MaxSessions: *sessions, IdleTTL: *sessionTTL, Trace: n.Collector()})
	plane := ctrl.New(cl, mgr)

	hcfg := health.Config{
		Source:  health.RouterSource(cl),
		Tick:    *healthTick,
		Advisor: health.AdvisorConfig{MinCells: *minCells, MaxCells: *maxCells, Cooldown: *scaleCooldown},
	}
	mode := "advise-only"
	if *autoscale {
		hcfg.Actuator = ctrl.Actuator{Plane: plane}
		mode = "enacting"
	}

	// Serve until SIGINT/SIGTERM: the listener stops accepting, one final
	// snapshot flushes (when -snapshot-dir is set), and the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := n.Run(ctx, node.Backend{
		Stream:       mgr,
		Plane:        plane,
		Health:       hcfg,
		Stats:        func() any { return cl.Stats() },
		SnapshotFile: "flcluster.snap",
		Capture:      replica.CaptureCluster(cl, mgr),
		Restore:      func(s replica.Snapshot) replica.RestoreReport { return replica.RestoreCluster(cl, mgr, s) },
		Banner: fmt.Sprintf("flcluster: %d cells listening on %s (POST /v1/cells/{id}/solve, POST /v1/solve, POST /v1/stream, POST /v1/handoff, POST/DELETE /v1/cells, POST /v1/rebalance, GET /v1/health, GET /v1/autoscale/plan, GET /debug/alerts, GET /v1/version, GET /v1/stats, GET /metrics); autoscale %s\n",
			cl.Cells(), *addr, mode),
	})
	stop()
	mgr.Close()
	cl.Close()
	n.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "flcluster:", err)
		os.Exit(1)
	}
}
