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
// The facade re-exports what the examples and the end-to-end benchmark
// use: the solver and its baselines, FedAvg, and the serving stack's
// constructors and wire forms. The commands under cmd/ import internal/
// directly; see internal/core for solver internals, internal/experiments
// for the figure drivers and internal/node for the serving-process
// wiring.
package repro

import (
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
	"repro/internal/serve"
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
)

// Optimizer types (see internal/core).
type (
	// Options configures the optimizer.
	Options = core.Options
	// Result is the optimizer output.
	Result = core.Result
)

// ModeDeadline minimizes E under a fixed completion time (Figs. 7-8); the
// zero Options.Mode minimizes w1*E + w2*T (problem (8)).
const ModeDeadline = core.ModeDeadline

// Experiment types (see internal/experiments).
type (
	// Scenario parameterizes a deployment (Section VII-A defaults).
	Scenario = experiments.Scenario
	// RunConfig controls figure regeneration (trials, seed).
	RunConfig = experiments.RunConfig
	// Figure is a reproduced plot stored as numeric series.
	Figure = experiments.Figure
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
	// SolveRequestJSON is the POST /v1/solve wire form.
	SolveRequestJSON = serve.SolveRequestJSON
	// SolveResponseJSON is the solve response wire form.
	SolveResponseJSON = serve.SolveResponseJSON
	// SystemJSON is the wire form of a System.
	SystemJSON = serve.SystemJSON
	// SolveBatchRequestJSON and SolveBatchResponseJSON are the
	// POST /v1/solve-batch wire forms.
	SolveBatchRequestJSON  = serve.SolveBatchRequestJSON
	SolveBatchResponseJSON = serve.SolveBatchResponseJSON
)

// ServePriorityBulk queues batch work behind live single solves (the
// batch default).
const ServePriorityBulk = serve.PriorityBulk

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

// NewServer builds an allocation server and starts its worker pool; call
// Close (or cancel a Serve context) to stop it.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

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

// Cluster types (see internal/cluster and internal/ctrl): the multi-cell
// router sharding per-cell servers with cross-cell device handoff, and the
// control plane that owns its runtime membership.
type (
	// Cluster routes requests across per-cell allocation servers.
	Cluster = cluster.Router
	// ClusterConfig parameterizes the cluster (cell count, per-cell
	// server template, routing state bounds).
	ClusterConfig = cluster.Config
	// ClusterAggregate is the cluster-wide rollup.
	ClusterAggregate = cluster.Aggregate
	// ClusterMove is one device's planned migration in a mass handoff.
	ClusterMove = cluster.Move
	// HandoffReport summarizes one cross-cell device handoff.
	HandoffReport = cluster.HandoffReport
	// HandoffRequestJSON is the POST /v1/handoff wire form.
	HandoffRequestJSON = cluster.HandoffRequestJSON
	// ClusterSolveResponseJSON is a solve response plus its serving cell.
	ClusterSolveResponseJSON = cluster.SolveResponseJSON
	// ControlPlane owns runtime membership over a Cluster (and optionally
	// the stream manager mounted on it).
	ControlPlane = ctrl.Plane
)

// ClusterCellAuto routes a request by device pin / consistent hash instead
// of an explicit cell index.
const ClusterCellAuto = cluster.CellAuto

// NewCluster builds a multi-cell router and starts every cell's worker
// pool; call Close to stop them.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

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
	// StreamSnapshot is the streaming layer's counter snapshot.
	StreamSnapshot = stream.Snapshot
	// StreamOpenResponseJSON is the POST /v1/stream response wire form.
	StreamOpenResponseJSON = stream.OpenResponseJSON
	// StreamDeltaJSON is one NDJSON delta line.
	StreamDeltaJSON = stream.DeltaJSON
	// StreamUpdateJSON is one NDJSON update line.
	StreamUpdateJSON = stream.UpdateJSON
)

// StreamErrStaleSeq rejects sequence-number regressions and replays.
var StreamErrStaleSeq = stream.ErrStaleSeq

// StreamNDJSONContentType is the media type of delta and update streams.
const StreamNDJSONContentType = stream.NDJSONContentType

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

// Observability types (see internal/obs and internal/obs/telemetry):
// request-scoped solve-lifecycle tracing, per-phase latency histograms,
// structured logging, batched span export and cross-process trace
// assembly.
type (
	// ObsCollector owns a process's trace ring, slowest-N exemplars and
	// per-phase histograms; all methods are nil-safe, so wiring is optional.
	ObsCollector = obs.Collector
	// ObsConfig tunes sampling, the slow threshold and retention sizes.
	ObsConfig = obs.Config
	// ObsTraceJSON is the GET /debug/traces wire form of one trace.
	ObsTraceJSON = obs.TraceJSON
	// ObsTraceQuery is the validated GET /debug/traces query (limit,
	// min_duration, trace_id).
	ObsTraceQuery = obs.TraceQuery
	// ObsMiddlewareConfig wires the middleware's trace and span-ingest
	// handlers, extra /v1/stats sections and /metrics appenders.
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
)

// NewObsCollector builds a trace collector; the zero config applies the
// defaults (1-in-16 sampling, 250ms slow threshold, 64-entry ring).
func NewObsCollector(cfg ObsConfig) *ObsCollector { return obs.NewCollector(cfg) }

// ObsSetupLogger installs a structured slog default logger writing to w at
// the named level ("debug", "info", "warn", "error"; "" means info), in
// JSON when jsonOut is set and human-readable text otherwise.
func ObsSetupLogger(w io.Writer, level string, jsonOut bool) (*slog.Logger, error) {
	return obs.SetupDefault(w, level, jsonOut)
}

// ObsMiddlewareWith wraps an HTTP handler with lifecycle tracing: it
// starts a trace per request (X-Trace-Id on the response), serves GET
// /debug/traces, and appends the obs histograms and mc's appenders to GET
// /metrics. A nil collector passes requests through untouched.
func ObsMiddlewareWith(c *ObsCollector, mc ObsMiddlewareConfig, next http.Handler) http.Handler {
	return obs.MiddlewareWith(c, mc, next)
}

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

// Incident-forensics types (see internal/obs/forensics): the always-on
// flight recorder, the SLO-triggered pprof capture, runtime vitals, and
// the one-shot /debug/incident bundle.
type (
	// FlightRecorder is the bounded ring of per-request wide events fed
	// from the collector sink (GET /debug/flight).
	FlightRecorder = forensics.FlightRecorder
	// ProfileTrigger captures pprof profiles on SLO transitions, with
	// rate limiting and bounded disk retention; a nil trigger is off.
	ProfileTrigger = forensics.ProfileTrigger
	// IncidentBundleConfig wires the GET /debug/incident tar.gz contents.
	IncidentBundleConfig = forensics.BundleConfig
	// IncidentSection is one named JSON document of the incident bundle.
	IncidentSection = forensics.Section
	// RuntimeVitals is one reading of the Go runtime's health signals.
	RuntimeVitals = forensics.Vitals
)

// NewFlightRecorder builds a flight recorder retaining the last n wide
// events (n <= 0 applies the 4096-event default). Chain it into the
// collector sink: col.SetSink(func(t ObsTraceJSON) { ...; fr.Observe(t) }).
func NewFlightRecorder(n int) *FlightRecorder { return forensics.NewFlightRecorder(n) }

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

// Health types (see internal/health): the rolling-window SLO engine with
// its alert ring and autoscale advisor.
type (
	// HealthEvaluator maintains per-cell rolling windows, judges SLO rules
	// with hysteresis, keeps the alert ring, and advises on scaling.
	HealthEvaluator = health.Evaluator
	// HealthConfig tunes the evaluator (tick, window, rules, advisor).
	HealthConfig = health.Config
	// HealthSource feeds the evaluator one reading per cell per tick.
	HealthSource = health.Source
	// HealthRuntimeSample is one process-level vitals reading judged by
	// the runtime rules.
	HealthRuntimeSample = health.RuntimeSample
)

// NewHealthEvaluator builds the health engine; call Start to poll on the
// configured tick (or drive Observe directly) and Close to stop.
func NewHealthEvaluator(cfg HealthConfig) *HealthEvaluator { return health.New(cfg) }

// HealthRouterSource samples every live cell of a cluster router.
func HealthRouterSource(c *Cluster) HealthSource { return health.RouterSource(c) }

// HealthServerSource samples a standalone server as cell 0.
func HealthServerSource(s *Server) HealthSource { return health.ServerSource(s) }
