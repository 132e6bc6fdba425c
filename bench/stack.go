package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro"
)

// solveFunc is the serving solver's signature (repro.ServeConfig.Solver).
type solveFunc = func(*repro.System, repro.Weights, repro.Options) (repro.Result, error)

// stack is one in-process serving stack behind a loopback HTTP listener.
type stack struct {
	url      string
	srv      *repro.Server  // flserved stack
	cl       *repro.Cluster // flcluster stack
	mgr      *repro.StreamManager
	sessions []string // stream sessions opened while priming
	closers  []func() // run in reverse order by close
}

// Serving settings shared by both stacks: the flserved/flcluster flag
// defaults (4 cells, 4096-entry cache, 0.25 dB gain buckets, 1-in-16 trace
// sampling, 2 s health tick).
const (
	stackCells      = 4
	stackCache      = 4096
	stackGainResDB  = 0.25
	stackTraceEvery = 16
	stackHealthTick = 2 * time.Second
)

// newStack builds the flserved (cluster = false) or flcluster serving stack
// the way those commands' runServer wires it — trace collector, telemetry
// exporter and aggregator, flight recorder, health evaluator, stream
// handler, and on the cluster the control plane — and serves it on a
// loopback listener. solver, when non-nil, replaces the serving solver; p,
// when non-nil, installs the traced run's probes.
func newStack(cluster bool, solver solveFunc, p *probe) *stack {
	st := &stack{}
	log := slog.Default()
	origin := "flserved"
	if cluster {
		origin = "flcluster"
	}
	col := repro.NewObsCollector(repro.ObsConfig{SampleEvery: stackTraceEvery})
	agg := repro.NewTelemetryAggregator(repro.TelemetryAggregatorConfig{})
	exp := repro.NewTelemetryExporter(repro.TelemetryExporterConfig{Origin: origin, Local: agg, Logger: log})
	st.closers = append(st.closers, func() { exp.Close() })
	flight := repro.NewFlightRecorder(0)
	col.SetSink(func(t repro.ObsTraceJSON) {
		exp.Enqueue(t)
		flight.Observe(t)
	})

	if p != nil {
		if solver == nil {
			solver = repro.Optimize
		}
		solver = p.wrapSolver(solver)
	}
	cell := repro.ServeConfig{
		Workers:        runtime.NumCPU(), // the commands' default, GOMAXPROCS, before main raised it
		CacheEntries:   stackCache,
		CacheTTL:       10 * time.Minute,
		DefaultTimeout: 30 * time.Second,
		Quantization:   repro.ServeQuantization{GainResolutionDB: stackGainResDB},
		Solver:         solver,
	}
	scfg := repro.StreamConfig{MaxSessions: 1024, IdleTTL: 5 * time.Minute, Trace: col}
	hcfg := repro.HealthConfig{Tick: stackHealthTick, Logger: log, Runtime: runtimeSample}

	var backend repro.StreamBackend
	var stats func() any
	if cluster {
		st.cl = repro.NewCluster(repro.ClusterConfig{Cells: stackCells, Cell: cell})
		st.closers = append(st.closers, st.cl.Close)
		backend = repro.NewStreamClusterBackend(st.cl)
		hcfg.Source = repro.HealthRouterSource(st.cl)
		stats = func() any { return st.cl.Stats() }
	} else {
		st.srv = repro.NewServer(cell)
		st.closers = append(st.closers, st.srv.Close)
		backend = repro.NewStreamServeBackend(st.srv)
		hcfg.Source = repro.HealthServerSource(st.srv)
		stats = func() any { return st.srv.Stats() }
	}
	if p != nil {
		backend = probedBackend{StreamBackend: backend, p: p}
	}
	mgr := repro.NewStreamManager(backend, scfg)
	st.mgr = mgr
	st.closers = append(st.closers, mgr.Close)
	ev := repro.NewHealthEvaluator(hcfg)
	ev.Start()
	st.closers = append(st.closers, ev.Close)

	inner := repro.StreamHandler(mgr)
	sections := []repro.IncidentSection{
		{Name: "alerts", Fetch: func() any { return ev.Alerts() }},
		{Name: "health", Fetch: func() any { return ev.Health() }},
		{Name: "stats", Fetch: stats},
		{Name: "traces", Fetch: func() any { return agg.Assembled(repro.ObsTraceQuery{Limit: 32}) }},
	}
	if cluster {
		plane := repro.NewControlPlane(st.cl, mgr)
		plane.SetLogger(log)
		plane.SetEvents(ev)
		inner = plane.Handler(inner)
		sections = append(sections, repro.IncidentSection{Name: "ctrl", Fetch: func() any { return plane.Stats() }})
	}
	var trig *repro.ProfileTrigger // no -profile-dir: captures are off, as in the commands' default
	mc := repro.ObsMiddlewareConfig{
		Flight:   flight.Handler(),
		Incident: repro.IncidentHandler(repro.IncidentBundleConfig{Origin: origin, Flight: flight, Profiles: trig, Sections: sections}),
		Metrics: []func(io.Writer) error{repro.WriteRuntimePrometheus, flight.WritePrometheus, trig.WritePrometheus,
			exp.WritePrometheus, agg.WritePrometheus},
		Traces: repro.TelemetryTracesHandler(col, agg),
		Spans:  agg.IngestHandler(),
		StatsSections: map[string]func() any{
			"telemetry": func() any { return map[string]any{"exporter": exp.StatsJSON(), "aggregator": agg.StatsJSON()} },
			"forensics": func() any { return map[string]any{"flight": flight.StatsJSON(), "profiles": trig.StatsJSON()} },
		},
	}
	var h http.Handler = repro.ObsMiddlewareWith(col, mc, ev.Handler(inner))
	if p != nil {
		h = p.middleware(h)
	}
	ts := httptest.NewServer(h)
	st.url = ts.URL
	st.closers = append(st.closers, ts.Close)
	return st
}

// close stops the listener (waiting for in-flight requests), then the
// serving layers beneath it.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

// runtimeSample feeds the health evaluator's process-level rules.
func runtimeSample() repro.HealthRuntimeSample {
	v := repro.ReadRuntimeVitals()
	return repro.HealthRuntimeSample{
		Goroutines:             float64(v.Goroutines),
		HeapBytes:              float64(v.HeapBytes),
		GCPauseP99Seconds:      v.GCPauseP99Seconds,
		SchedLatencyP99Seconds: v.SchedLatencyP99Seconds,
	}
}

// serveStats returns the stack's serve counters, summed over cells on a
// cluster.
func (st *stack) serveStats() repro.ServeStats {
	if st.cl != nil {
		return st.cl.Stats().Aggregate.Snapshot
	}
	return st.srv.Stats()
}
