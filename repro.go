// Package repro is a from-scratch Go reproduction of
//
//	X. Zhou, J. Zhao, H. Han, C. Guet,
//	"Joint Optimization of Energy Consumption and Completion Time in
//	Federated Learning", IEEE ICDCS 2022 (arXiv:2209.14900).
//
// It provides the paper's system model (N federated-learning devices
// uploading over FDMA to one base station), the weighted energy/delay
// resource-allocation algorithm (Algorithm 2 with its two subproblems), the
// evaluation baselines, and drivers that regenerate every figure of the
// paper's Section VII.
//
// # Quick start
//
//	sc := repro.DefaultScenario()
//	system, err := sc.Build(rand.New(rand.NewSource(1)))
//	if err != nil { ... }
//	res, err := repro.Optimize(system, repro.Weights{W1: 0.5, W2: 0.5}, repro.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Metrics.TotalEnergy, res.Metrics.TotalTime)
//
// The facade re-exports the stable subset of the internal packages; see
// internal/core for solver internals and internal/experiments for the
// figure drivers.
package repro

import (
	"context"
	"io"
	"log/slog"
	"math/rand"
	"net/http"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/fedavg"
	"repro/internal/fl"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/obs/forensics"
	"repro/internal/obs/telemetry"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Core model types (see internal/fl).
type (
	// System is a complete FL deployment: devices plus shared constants.
	System = fl.System
	// Device holds one device's static parameters.
	Device = fl.Device
	// Weights is the objective weight pair (w1, w2) of problem (8).
	Weights = fl.Weights
	// Allocation holds the decision variables (p, B, f).
	Allocation = fl.Allocation
	// Metrics is the energy/latency accounting of an allocation.
	Metrics = fl.Metrics
)

// Optimizer types (see internal/core).
type (
	// Options configures the optimizer.
	Options = core.Options
	// Result is the optimizer output.
	Result = core.Result
	// Mode selects weighted or deadline-constrained operation.
	Mode = core.Mode
	// Workspace is reusable solver scratch memory (Options.Work); one per
	// goroutine keeps repeated solves allocation-free.
	Workspace = core.Workspace
)

// NewWorkspace returns an empty solver workspace; see Options.Work.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// Re-exported operating modes.
const (
	// ModeWeighted minimizes w1*E + w2*T (problem (8)).
	ModeWeighted = core.ModeWeighted
	// ModeDeadline minimizes E under a fixed completion time (Figs. 7-8).
	ModeDeadline = core.ModeDeadline
)

// Experiment types (see internal/experiments).
type (
	// Scenario parameterizes a deployment (Section VII-A defaults).
	Scenario = experiments.Scenario
	// RunConfig controls figure regeneration (trials, seed).
	RunConfig = experiments.RunConfig
	// Figure is a reproduced plot stored as numeric series.
	Figure = experiments.Figure
	// Series is one labelled curve.
	Series = experiments.Series
)

// Optimize runs the paper's resource-allocation algorithm (Algorithm 2) on
// the system with the given weights.
func Optimize(s *System, w Weights, opts Options) (Result, error) {
	return core.Optimize(s, w, opts)
}

// MinCompletionTime returns the minimum achievable per-round completion
// time and the allocation attaining it (full power and frequency, bandwidth
// waterfilled to equalize round times).
func MinCompletionTime(s *System) (Allocation, float64, error) {
	mt, err := core.SolveMinTime(s)
	if err != nil {
		return Allocation{}, 0, err
	}
	return mt.Allocation, mt.RoundDeadline, nil
}

// DefaultScenario returns the paper's Section VII-A parameters.
func DefaultScenario() Scenario { return experiments.Default() }

// WeightPairs returns the five (w1, w2) pairs used throughout the paper's
// evaluation.
func WeightPairs() []Weights { return experiments.WeightPairs() }

// RandomFreqBenchmark is the paper's Fig. 2 comparison scheme: random CPU
// frequency, full power, equal bandwidth split.
func RandomFreqBenchmark(s *System, rng *rand.Rand) Allocation {
	return baselines.RandomFreq(s, rng)
}

// RandomPowerBenchmark is the paper's Fig. 3 comparison scheme: random
// transmit power, full frequency, equal bandwidth split.
func RandomPowerBenchmark(s *System, rng *rand.Rand) Allocation {
	return baselines.RandomPower(s, rng)
}

// CommunicationOnly optimizes only the transmission side under a total
// completion-time limit (Fig. 7 baseline).
func CommunicationOnly(s *System, totalDeadline float64) (Allocation, error) {
	return baselines.CommunicationOnly(s, totalDeadline)
}

// ComputationOnly optimizes only the CPU frequencies under a total
// completion-time limit (Fig. 7 baseline).
func ComputationOnly(s *System, totalDeadline float64) (Allocation, error) {
	return baselines.ComputationOnly(s, totalDeadline)
}

// Scheme1 is the state-of-the-art comparator of Fig. 8 (Yang et al.,
// energy minimization under a hard deadline, reproduced as block-coordinate
// descent without the joint (p, B) treatment).
func Scheme1(s *System, totalDeadline float64) (Allocation, error) {
	return baselines.Scheme1(s, totalDeadline, baselines.Scheme1Options{})
}

// FedAvg types (see internal/fedavg) for examples that tie the allocation
// to a live training loop.
type (
	// FedAvgConfig parameterizes FedAvg training (R_l, R_g, learning rate).
	FedAvgConfig = fedavg.Config
	// FedAvgDataset is a labelled design matrix.
	FedAvgDataset = fedavg.Dataset
	// FedAvgModel is a logistic-regression parameter vector.
	FedAvgModel = fedavg.Model
	// FedAvgResult reports a completed training run.
	FedAvgResult = fedavg.TrainResult
)

// SyntheticLogistic draws a synthetic binary-classification dataset and the
// generating weights.
func SyntheticLogistic(rng *rand.Rand, n, dim int, labelNoise float64) (FedAvgDataset, []float64) {
	return fedavg.SyntheticLogistic(rng, n, dim, labelNoise)
}

// SplitEqual shards a dataset across devices.
func SplitEqual(ds FedAvgDataset, parts int) ([]FedAvgDataset, error) {
	return fedavg.SplitEqual(ds, parts)
}

// TrainFedAvg runs the FedAvg loop, invoking hook after every global round.
func TrainFedAvg(cfg FedAvgConfig, shards []FedAvgDataset, hook func(round int, m FedAvgModel)) (FedAvgResult, error) {
	return fedavg.Train(cfg, shards, hook)
}

// Replay simulates a campaign of global rounds with per-round Nakagami-m
// small-scale fading around the mean channel gains, measuring the realized
// energy/latency and deadline-miss rate of a static allocation (the
// sensitivity analysis the paper's fade-free model cannot express).
// nakagamiM = 1 is Rayleigh fading; math.Inf(1) reproduces the static model
// exactly. roundDeadline (when positive) is the per-round deadline used for
// violation counting.
func Replay(s *System, a Allocation, nakagamiM float64, rounds int, roundDeadline float64, rng *rand.Rand) (ReplaySummary, error) {
	return sim.Run(s, a, sim.Config{NakagamiM: nakagamiM, Rounds: rounds, RoundDeadline: roundDeadline}, rng)
}

// ReplaySummary aggregates a fading replay (see internal/sim).
type ReplaySummary = sim.Summary

// Serving types (see internal/serve): the concurrent allocation service
// with a fingerprint-keyed solution cache and an HTTP API.
type (
	// Server is the worker-pool allocation service.
	Server = serve.Server
	// ServeConfig parameterizes the service (pool size, cache, timeouts).
	ServeConfig = serve.Config
	// ServeQuantization is ignored: fingerprints are exact; removed
	// together with bench/'s warm vocabulary.
	ServeQuantization = serve.Quantization
	// ServeRequest is one instance to solve.
	ServeRequest = serve.Request
	// ServeResponse is the outcome of one request.
	ServeResponse = serve.Response
	// ServeStats is a snapshot of the service counters.
	ServeStats = serve.Snapshot
	// ServeFingerprint is a two-granularity instance fingerprint.
	ServeFingerprint = serve.Fingerprint
	// ServeSolverName selects the answering algorithm of a request.
	ServeSolverName = serve.SolverName
	// SolveRequestJSON and SystemJSON are the HTTP wire forms.
	SolveRequestJSON = serve.SolveRequestJSON
	// SolveResponseJSON is the solve response wire form.
	SolveResponseJSON = serve.SolveResponseJSON
	// SystemJSON is the wire form of a System.
	SystemJSON = serve.SystemJSON
	// ServeBatchItem is one SolveBatch outcome.
	ServeBatchItem = serve.BatchItem
	// ServePriority ranks batch work against interactive traffic.
	ServePriority = serve.Priority
	// SolveBatchRequestJSON and SolveBatchResponseJSON are the
	// POST /v1/solve-batch wire forms.
	SolveBatchRequestJSON  = serve.SolveBatchRequestJSON
	SolveBatchResponseJSON = serve.SolveBatchResponseJSON
	// BatchItemJSON is one item of a batch response.
	BatchItemJSON = serve.BatchItemJSON
	// BucketSnapshot is one topology bucket's hit-rate view in ServeStats.
	BucketSnapshot = serve.BucketSnapshot
)

// Re-exported batch priorities.
const (
	// ServePriorityInteractive competes with live single solves.
	ServePriorityInteractive = serve.PriorityInteractive
	// ServePriorityBulk queues behind them (the batch default).
	ServePriorityBulk = serve.PriorityBulk
)

// Re-exported response sources.
const (
	// ServeSourceCache marks responses answered from the solution cache.
	ServeSourceCache = serve.SourceCache
	// ServeSourceWarm is never served: every cache miss solves cold. It
	// stays for callers that still match on it.
	ServeSourceWarm serve.Source = "warm"
	// ServeSourceCold marks responses the solver produced on a cache miss.
	ServeSourceCold = serve.SourceCold
)

// Re-exported solver selectors for the serving path.
const (
	// ServeSolverAlgorithm2 is the paper's alternating optimizer (default).
	ServeSolverAlgorithm2 = serve.SolverAlgorithm2
	// ServeSolverScheme1 is the Yang et al. comparator (deadline mode).
	ServeSolverScheme1 = serve.SolverScheme1
	// ServeSolverSimplified is the linearized-Shannon baseline (weighted).
	ServeSolverSimplified = serve.SolverSimplified
)

// NewServer builds an allocation server and starts its worker pool; call
// Close (or cancel a Serve context) to stop it.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// Cluster types (see internal/cluster): the multi-cell router sharding
// per-cell servers with cross-cell device handoff and aggregated stats.
type (
	// Cluster routes requests across per-cell allocation servers.
	Cluster = cluster.Router
	// ClusterConfig parameterizes the cluster (cell count, per-cell
	// server template, routing state bounds).
	ClusterConfig = cluster.Config
	// ClusterStats is the aggregate + per-cell counter snapshot.
	ClusterStats = cluster.Stats
	// ClusterCellStats is one cell's tagged snapshot.
	ClusterCellStats = cluster.CellStats
	// ClusterAggregate is the cluster-wide rollup.
	ClusterAggregate = cluster.Aggregate
	// HandoffReport summarizes one cross-cell device handoff.
	HandoffReport = cluster.HandoffReport
	// HandoffRequestJSON is the POST /v1/handoff wire form.
	HandoffRequestJSON = cluster.HandoffRequestJSON
	// ClusterSolveResponseJSON is a solve response plus its serving cell.
	ClusterSolveResponseJSON = cluster.SolveResponseJSON
	// ClusterSolveBatchResponseJSON is the routed batch response wire form.
	ClusterSolveBatchResponseJSON = cluster.SolveBatchResponseJSON
	// ClusterBatchItemJSON is one routed batch item plus its serving cell.
	ClusterBatchItemJSON = cluster.BatchItemJSON
)

// ClusterCellAuto routes a request by device pin / consistent hash instead
// of an explicit cell index.
const ClusterCellAuto = cluster.CellAuto

// NewCluster builds a multi-cell router and starts every cell's worker
// pool; call Close to stop them.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// Elastic-membership types (see internal/cluster): runtime cell add/remove
// and batched mass migration.
type (
	// ClusterMove is one device's planned migration in a mass handoff.
	ClusterMove = cluster.Move
	// MassHandoffReport summarizes one batched migration.
	MassHandoffReport = cluster.MassHandoffReport
	// ClusterCellFlow counts per-cell instance flow in a mass migration.
	ClusterCellFlow = cluster.CellFlow
	// ClusterUnknownCellError is the typed unknown-cell error (unwraps to
	// ClusterErrUnknownCell; HTTP front ends answer it with the uniform
	// 404 {"error":"unknown_cell","cell":N} body).
	ClusterUnknownCellError = cluster.UnknownCellError
	// ClusterErrorJSON is the uniform error body of cluster and
	// control-plane endpoints.
	ClusterErrorJSON = cluster.ErrorJSON
)

// Re-exported membership errors.
var (
	// ClusterErrUnknownCell flags a cell ID that is not a member.
	ClusterErrUnknownCell = cluster.ErrUnknownCell
	// ClusterErrLastCell refuses removing/draining the final cell.
	ClusterErrLastCell = cluster.ErrLastCell
)

// Control-plane types (see internal/ctrl): the elastic-cluster layer that
// owns ring membership and bulk state migration.
type (
	// ControlPlane owns runtime membership over a Cluster (and optionally
	// the stream manager mounted on it).
	ControlPlane = ctrl.Plane
	// CtrlStats is the control plane's counter snapshot (the "ctrl"
	// section of GET /v1/stats).
	CtrlStats = ctrl.Snapshot
	// AddCellReport reports one cell addition (ID, generation, backfill).
	AddCellReport = ctrl.AddCellReport
	// DrainReport reports one cell drain + removal.
	DrainReport = ctrl.DrainReport
	// RebalancePlan is the dry-run per-cell moved-key view.
	RebalancePlan = ctrl.RebalancePlan
	// RebalanceReport reports one executed rebalance.
	RebalanceReport = ctrl.RebalanceReport
)

// NewControlPlane builds the control plane over a cluster router; mgr may
// be nil when no streaming layer is mounted (drains then skip session
// suspension).
func NewControlPlane(c *Cluster, mgr *StreamManager) *ControlPlane { return ctrl.New(c, mgr) }

// Streaming types (see internal/stream): the session-oriented gain-delta
// subsystem layered over the allocation service and the cluster.
type (
	// StreamManager owns the delta-session table over one backend.
	StreamManager = stream.Manager
	// StreamConfig bounds the session table (max sessions, idle TTL).
	StreamConfig = stream.Config
	// StreamBackend abstracts what sessions re-solve against (a single
	// server or a cluster router).
	StreamBackend = stream.Backend
	// StreamSession pins one client's authoritative system server-side.
	StreamSession = stream.Session
	// StreamDelta is one sparse gain/weight/deadline update.
	StreamDelta = stream.Delta
	// StreamUpdate is the outcome of one applied delta.
	StreamUpdate = stream.Update
	// StreamSnapshot is the streaming layer's counter snapshot.
	StreamSnapshot = stream.Snapshot
	// StreamCloseSummary reports a closed session's final state.
	StreamCloseSummary = stream.CloseSummary
	// StreamOpenResponseJSON is the POST /v1/stream response wire form.
	StreamOpenResponseJSON = stream.OpenResponseJSON
	// StreamDeltaJSON is one NDJSON delta line.
	StreamDeltaJSON = stream.DeltaJSON
	// StreamUpdateJSON is one NDJSON update line.
	StreamUpdateJSON = stream.UpdateJSON
	// StreamWeightsJSON is the wire form of a weight update.
	StreamWeightsJSON = stream.WeightsJSON
)

// Re-exported streaming errors (typed rejection of bad delta streams).
var (
	// StreamErrStaleSeq rejects sequence-number regressions and replays.
	StreamErrStaleSeq = stream.ErrStaleSeq
	// StreamErrBadDelta rejects malformed deltas (bad index/value/mode).
	StreamErrBadDelta = stream.ErrBadDelta
	// StreamErrNoSession flags unknown, closed or expired sessions.
	StreamErrNoSession = stream.ErrNoSession
	// StreamErrSessionLimit rejects opens beyond MaxSessions.
	StreamErrSessionLimit = stream.ErrSessionLimit
)

// NewStreamManager builds a delta-session manager over a backend and starts
// its expiry sweeper; call Close to stop it (the backend stays up).
func NewStreamManager(be StreamBackend, cfg StreamConfig) *StreamManager {
	return stream.NewManager(be, cfg)
}

// NewStreamServeBackend adapts a single allocation server for sessions.
func NewStreamServeBackend(s *Server) StreamBackend { return stream.NewServeBackend(s) }

// NewStreamClusterBackend adapts a cluster router for sessions (deltas are
// device-routed, so sessions follow their device across handoffs).
func NewStreamClusterBackend(c *Cluster) StreamBackend { return stream.NewClusterBackend(c) }

// StreamHandler mounts the streaming API (POST /v1/stream, NDJSON
// POST /v1/stream/{id}/deltas, DELETE /v1/stream/{id}, merged /v1/stats and
// /metrics) over the backend's base HTTP API; a drop-in replacement for it.
func StreamHandler(m *StreamManager) http.Handler { return stream.Handler(m) }

// StreamNDJSONContentType is the media type of delta and update streams.
const StreamNDJSONContentType = stream.NDJSONContentType

// FingerprintInstance hashes an instance at cache and topology
// granularity. The quantization argument is ignored: fingerprints are
// exact; removed together with bench/'s warm vocabulary.
func FingerprintInstance(s *System, w Weights, opts Options, _ ServeQuantization) ServeFingerprint {
	return serve.FingerprintInstance(s, w, opts)
}

// SystemToJSON converts a system to the HTTP wire form.
func SystemToJSON(s *System) SystemJSON { return serve.SystemToJSON(s) }

// SystemFromJSON converts the HTTP wire form back to a checked System.
func SystemFromJSON(in SystemJSON) (*System, error) { return serve.SystemFromJSON(in) }

// Observability types (see internal/obs): request-scoped solve-lifecycle
// tracing, per-phase latency histograms and structured logging.
type (
	// ObsCollector owns a process's trace ring, slowest-N exemplars and
	// per-phase histograms; all methods are nil-safe, so wiring is optional.
	ObsCollector = obs.Collector
	// ObsConfig tunes sampling, the slow threshold and retention sizes.
	ObsConfig = obs.Config
	// ObsTrace is one request's ordered span record (nil-safe methods).
	ObsTrace = obs.Trace
	// ObsSpan is one recorded phase of a trace.
	ObsSpan = obs.Span
	// ObsAttr carries optional span attributes (cell, detail, value).
	ObsAttr = obs.Attr
	// ObsTraceJSON is the GET /debug/traces wire form of one trace.
	ObsTraceJSON = obs.TraceJSON
	// ObsTraceQuery is the validated GET /debug/traces query (limit,
	// min_duration, trace_id).
	ObsTraceQuery = obs.TraceQuery
)

// ObsDebugPath is the trace-inspection endpoint mounted by ObsMiddleware.
const ObsDebugPath = obs.DebugPath

// NewObsCollector builds a trace collector; the zero config applies the
// defaults (1-in-16 sampling, 250ms slow threshold, 64-entry ring).
func NewObsCollector(cfg ObsConfig) *ObsCollector { return obs.NewCollector(cfg) }

// ObsMiddleware wraps an HTTP handler with lifecycle tracing: it starts a
// trace per request (X-Trace-Id on the response), serves GET /debug/traces,
// and appends the obs histograms to GET /metrics. A nil collector passes
// requests through untouched.
func ObsMiddleware(c *ObsCollector, next http.Handler) http.Handler {
	return obs.Middleware(c, next)
}

// ObsFromContext returns the context's trace, or nil (whose methods no-op).
func ObsFromContext(ctx context.Context) *ObsTrace { return obs.FromContext(ctx) }

// ObsSetupLogger installs a structured slog default logger writing to w at
// the named level ("debug", "info", "warn", "error"; "" means info), in
// JSON when jsonOut is set and human-readable text otherwise.
func ObsSetupLogger(w io.Writer, level string, jsonOut bool) (*slog.Logger, error) {
	return obs.SetupDefault(w, level, jsonOut)
}

// ObsVersionString renders the binary's build info (module, version, VCS
// revision, Go version) on one line, for -version flags.
func ObsVersionString() string { return obs.VersionString() }

// Telemetry types (see internal/obs/telemetry): the distributed telemetry
// plane — batched span export from cells, cross-process trace assembly at
// the router, and the live ops dashboard.
type (
	// ObsMiddlewareConfig extends ObsMiddleware with replacement trace and
	// span-ingest handlers, extra /v1/stats sections and /metrics appenders.
	ObsMiddlewareConfig = obs.MiddlewareConfig
	// TelemetryExporter batches finished traces and ships them to an
	// aggregator (in-process and/or over POST /debug/spans).
	TelemetryExporter = telemetry.Exporter
	// TelemetryExporterConfig tunes the exporter's buffering and target.
	TelemetryExporterConfig = telemetry.ExporterConfig
	// TelemetryAggregator assembles per-process span batches into
	// cross-process traces keyed by trace ID.
	TelemetryAggregator = telemetry.Aggregator
	// TelemetryAggregatorConfig tunes assembly retention and promotion.
	TelemetryAggregatorConfig = telemetry.AggregatorConfig
	// TelemetryAssembledTraceJSON is one assembled cross-process trace.
	TelemetryAssembledTraceJSON = telemetry.AssembledTraceJSON
	// TelemetryDashboardConfig configures the SSE ops dashboard feed.
	TelemetryDashboardConfig = telemetry.DashboardConfig
	// TelemetrySource is one named dashboard section fetcher.
	TelemetrySource = telemetry.Source
)

// Telemetry-plane endpoints: span ingest (POST, internal) and the SSE ops
// dashboard (GET, debug listener).
const (
	ObsSpansPath           = obs.SpansPath
	TelemetryDashboardPath = telemetry.DashboardPath
)

// NewTelemetryExporter builds and starts a span exporter; Close flushes and
// stops it. Feed it from a collector via ObsCollector.SetSink(exp.Enqueue).
func NewTelemetryExporter(cfg TelemetryExporterConfig) *TelemetryExporter {
	return telemetry.NewExporter(cfg)
}

// NewTelemetryAggregator builds a cross-process trace assembler.
func NewTelemetryAggregator(cfg TelemetryAggregatorConfig) *TelemetryAggregator {
	return telemetry.NewAggregator(cfg)
}

// TelemetryTracesHandler serves GET /debug/traces with both the local
// collector's rings and the aggregator's assembled cross-process traces.
func TelemetryTracesHandler(c *ObsCollector, a *TelemetryAggregator) http.Handler {
	return telemetry.TracesHandler(c, a)
}

// TelemetryDashboardHandler serves the GET /debug/dashboard SSE feed.
func TelemetryDashboardHandler(cfg TelemetryDashboardConfig) http.Handler {
	return telemetry.DashboardHandler(cfg)
}

// ObsMiddlewareWith is ObsMiddleware plus telemetry-plane wiring: custom
// trace/span handlers and extra stats sections / metrics appenders.
func ObsMiddlewareWith(c *ObsCollector, mc ObsMiddlewareConfig, next http.Handler) http.Handler {
	return obs.MiddlewareWith(c, mc, next)
}

// Incident-forensics types (see internal/obs/forensics): the always-on
// flight recorder, the SLO-triggered pprof capture trigger, runtime
// vitals, and the one-shot /debug/incident bundle.
type (
	// FlightRecorder is the bounded ring of per-request wide events fed
	// from the collector sink (GET /debug/flight).
	FlightRecorder = forensics.FlightRecorder
	// FlightEvent is one request's wide event.
	FlightEvent = forensics.Event
	// ProfileTrigger captures pprof profiles on SLO transitions, with
	// rate limiting and bounded disk retention.
	ProfileTrigger = forensics.ProfileTrigger
	// ProfileConfig tunes a ProfileTrigger (dir, CPU window, retention).
	ProfileConfig = forensics.ProfileConfig
	// ProfileCapture records one trigger firing.
	ProfileCapture = forensics.Capture
	// IncidentBundleConfig wires the GET /debug/incident tar.gz contents.
	IncidentBundleConfig = forensics.BundleConfig
	// IncidentSection is one named JSON document of the incident bundle.
	IncidentSection = forensics.Section
	// RuntimeVitals is one reading of the Go runtime's health signals.
	RuntimeVitals = forensics.Vitals
	// TelemetryDebugMuxConfig wires the shared -debug-addr surface.
	TelemetryDebugMuxConfig = telemetry.DebugMuxConfig
)

// Forensics endpoints on the public middleware and the debug listener.
const (
	ObsFlightPath   = obs.FlightPath
	ObsIncidentPath = obs.IncidentPath
)

// NewFlightRecorder builds a flight recorder retaining the last n wide
// events (n <= 0 applies the 4096-event default). Chain it into the
// collector sink: col.SetSink(func(t ObsTraceJSON) { ...; fr.Observe(t) }).
func NewFlightRecorder(n int) *FlightRecorder { return forensics.NewFlightRecorder(n) }

// NewProfileTrigger builds an SLO-triggered pprof capturer rooted at
// cfg.Dir; Close waits for any in-flight CPU profile.
func NewProfileTrigger(cfg ProfileConfig) (*ProfileTrigger, error) {
	return forensics.NewProfileTrigger(cfg)
}

// IncidentHandler serves GET /debug/incident: one tar.gz assembling the
// flight window, runtime vitals, the configured sections, and retained
// profile captures.
func IncidentHandler(cfg IncidentBundleConfig) http.Handler {
	return forensics.IncidentHandler(cfg)
}

// ReadRuntimeVitals samples the Go runtime (cheap; no stop-the-world).
func ReadRuntimeVitals() RuntimeVitals { return forensics.ReadVitals() }

// WriteRuntimePrometheus appends the obs_runtime_* gauges to a /metrics
// exposition.
func WriteRuntimePrometheus(w io.Writer) error { return forensics.WriteRuntimePrometheus(w) }

// TelemetryDebugMux builds the standalone debug mux every cmd mounts on
// -debug-addr: pprof plus whatever trace, dashboard, flight, incident and
// metrics handlers are wired.
func TelemetryDebugMux(cfg TelemetryDebugMuxConfig) http.Handler {
	return telemetry.DebugMux(cfg)
}

// TelemetryMetricsHandler composes Prometheus-text appenders into a
// standalone GET /metrics handler for the debug mux of cmds whose only
// listener is -debug-addr (flopt, experiments).
func TelemetryMetricsHandler(writers ...func(io.Writer) error) http.Handler {
	return telemetry.MetricsHandler(writers...)
}

// Health types (see internal/health): the rolling-window SLO engine with
// its alert ring and autoscale advisor.
type (
	// HealthEvaluator maintains per-cell rolling windows, judges SLO rules
	// with hysteresis, keeps the alert ring, and advises on scaling.
	HealthEvaluator = health.Evaluator
	// HealthConfig tunes the evaluator (tick, window, rules, advisor).
	HealthConfig = health.Config
	// HealthAdvisorConfig tunes the autoscale policy (bounds, sustained-
	// signal widths, cooldown).
	HealthAdvisorConfig = health.AdvisorConfig
	// HealthRule is one SLO (metric, threshold, hysteresis widths).
	HealthRule = health.Rule
	// HealthState is an SLO standing: ok, degraded or breached.
	HealthState = health.State
	// HealthAlert is one event in the ring behind GET /debug/alerts.
	HealthAlert = health.Alert
	// HealthWindowStats is one cell's aggregated rolling window.
	HealthWindowStats = health.WindowStats
	// HealthCellSample is one cell's raw per-tick reading.
	HealthCellSample = health.CellSample
	// HealthSource feeds the evaluator one reading per cell per tick.
	HealthSource = health.Source
	// HealthActuator enacts advisor plans (the ctrl plane adapts to it).
	HealthActuator = health.Actuator
	// AutoscalePlan is the advisor's recommendation
	// (GET /v1/autoscale/plan).
	AutoscalePlan = health.Plan
	// HealthJSON is the GET /v1/health body.
	HealthJSON = health.HealthJSON
	// HealthMetric names the window aggregate an SLO rule judges.
	HealthMetric = health.Metric
	// HealthTransition is one SLO state change, delivered to the
	// HealthConfig.OnTransition hook (the profile trigger's feed).
	HealthTransition = health.Transition
	// HealthRuntimeSample is one process-level vitals reading judged by
	// the runtime rules.
	HealthRuntimeSample = health.RuntimeSample
)

// Window metrics health rules can bind to.
const (
	HealthMetricQueueWaitP50 = health.MetricQueueWaitP50
	HealthMetricQueueWaitP99 = health.MetricQueueWaitP99
	HealthMetricSolveP50     = health.MetricSolveP50
	HealthMetricSolveP99     = health.MetricSolveP99
	HealthMetricErrorRate    = health.MetricErrorRate
	HealthMetricCacheHitRate = health.MetricCacheHitRate
	HealthMetricQueueDepth   = health.MetricQueueDepth
	HealthMetricRequestRate  = health.MetricRequestRate
)

// Process-level runtime metrics (judged against pseudo-cell
// HealthProcessCell rather than any serving cell).
const (
	HealthMetricGoroutines      = health.MetricGoroutines
	HealthMetricHeapBytes       = health.MetricHeapBytes
	HealthMetricGCPauseP99      = health.MetricGCPauseP99
	HealthMetricSchedLatencyP99 = health.MetricSchedLatencyP99
)

// Health states, severity-ordered, and the pseudo-cell of process-level
// runtime-rule transitions.
const (
	HealthStateOK       = health.StateOK
	HealthStateDegraded = health.StateDegraded
	HealthStateBreached = health.StateBreached
	HealthProcessCell   = health.ProcessCell
)

// HealthDefaultRules returns the stock SLO set: queue-wait p99 under 50ms,
// solve p99 under 500ms, error rate under 5%, and a cache-hit-rate floor.
func HealthDefaultRules() []HealthRule { return health.DefaultRules() }

// HealthDefaultRuntimeRules returns the stock process-level rule set
// (goroutine-leak ceiling, GC-pause-p99 bar).
func HealthDefaultRuntimeRules() []HealthRule { return health.DefaultRuntimeRules() }

// NewHealthEvaluator builds the health engine; call Start to poll on the
// configured tick (or drive Observe directly) and Close to stop.
func NewHealthEvaluator(cfg HealthConfig) *HealthEvaluator { return health.New(cfg) }

// HealthRouterSource samples every live cell of a cluster router.
func HealthRouterSource(c *Cluster) HealthSource { return health.RouterSource(c) }

// HealthServerSource samples a standalone server as cell 0.
func HealthServerSource(s *Server) HealthSource { return health.ServerSource(s) }

// NewCtrlActuator adapts the control plane's autoscale entry points
// (AutoscaleAddCell / AutoscaleDrainCell) to the health layer's Actuator.
func NewCtrlActuator(p *ControlPlane) HealthActuator { return ctrl.Actuator{Plane: p} }

// Snapshot & crash types (see internal/replica and internal/ctrl):
// periodic snapshot/restore of a serving process and drain-less cell
// removal.
type (
	// ReplicaSnapshot is the full durable state of one serving process
	// (every cell's solution cache plus open stream sessions).
	ReplicaSnapshot = replica.Snapshot
	// ReplicaSnapshotter persists periodic snapshots; Close flushes one
	// final snapshot on graceful shutdown.
	ReplicaSnapshotter = replica.Snapshotter
	// ReplicaSnapshotterConfig tunes the snapshotter (path, interval,
	// capture hook).
	ReplicaSnapshotterConfig = replica.SnapshotterConfig
	// ReplicaRestoreReport summarizes what a boot restore landed.
	ReplicaRestoreReport = replica.RestoreReport
	// CrashReport reports one drain-less cell removal (ctrl.CrashCell).
	CrashReport = ctrl.CrashReport
	// StreamSessionSnapshot is one serialized stream session.
	StreamSessionSnapshot = stream.SessionSnapshot
	// ServerState is one server's serializable solution cache.
	ServerState = serve.ServerState
)

// Re-exported snapshot-codec errors (restore degrades to a cold start on
// either — boot never fails because of a snapshot).
var (
	// ErrSnapshotVersion flags a snapshot written by an incompatible codec.
	ErrSnapshotVersion = replica.ErrSnapshotVersion
	// ErrSnapshotCorrupt flags a truncated or checksum-failing snapshot.
	ErrSnapshotCorrupt = replica.ErrSnapshotCorrupt
)

// NewReplicaSnapshotter builds a snapshotter; call Start for the periodic
// loop and Close to flush the final snapshot.
func NewReplicaSnapshotter(cfg ReplicaSnapshotterConfig) *ReplicaSnapshotter {
	return replica.NewSnapshotter(cfg)
}

// ReplicaCaptureServer builds a single-server snapshot capture (mgr may be
// nil).
func ReplicaCaptureServer(s *Server, mgr *StreamManager) func() ReplicaSnapshot {
	return replica.CaptureServer(s, mgr)
}

// ReplicaCaptureCluster builds a whole-cluster snapshot capture (mgr may
// be nil).
func ReplicaCaptureCluster(c *Cluster, mgr *StreamManager) func() ReplicaSnapshot {
	return replica.CaptureCluster(c, mgr)
}

// ReplicaRestoreServer imports a snapshot into a single-server process.
func ReplicaRestoreServer(s *Server, mgr *StreamManager, snap ReplicaSnapshot) ReplicaRestoreReport {
	return replica.RestoreServer(s, mgr, snap)
}

// ReplicaRestoreCluster imports a snapshot into a cluster, spreading
// orphaned cell sections over the live cells.
func ReplicaRestoreCluster(c *Cluster, mgr *StreamManager, snap ReplicaSnapshot) ReplicaRestoreReport {
	return replica.RestoreCluster(c, mgr, snap)
}

// ReplicaBootRestore loads the snapshot at path and restores it, degrading
// every failure to a cold start (missing file: silent; corrupt/version-
// skewed: WARN). Boot never fails because of a snapshot.
func ReplicaBootRestore(path string, log *slog.Logger, restore func(ReplicaSnapshot) ReplicaRestoreReport) (ReplicaRestoreReport, bool) {
	return replica.BootRestore(path, log, restore)
}
