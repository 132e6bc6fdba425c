package repro_test

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (each regenerates the figure's full sweep with one random draw per point;
// run cmd/experiments for averaged, human-readable tables), plus
// micro-benchmarks of the core solver stages.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro"
	"repro/internal/serve"
)

func benchCfg() repro.RunConfig { return repro.RunConfig{Trials: 1, Seed: 1} }

// BenchmarkFig2 regenerates Figs. 2a/2b: energy & delay vs p_max, five
// weight pairs + random benchmark.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.Fig2(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Figs. 3a/3b: energy & delay vs f_max.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.Fig3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates Figs. 4a/4b: energy & delay vs N.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.Fig4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Figs. 5a/5b: energy & delay vs radius.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.Fig5(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates Figs. 6a/6b: energy & delay vs R_l and R_g.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.Fig6(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7: energy vs completion-time limit,
// proposed vs communication-only vs computation-only.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig7(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8: energy vs p_max under fixed deadlines,
// proposed vs Scheme 1.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig8(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeWeighted measures one full Algorithm 2 run at the
// paper's default N = 50 and balanced weights.
func BenchmarkOptimizeWeighted(b *testing.B) {
	sc := repro.DefaultScenario()
	s, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Optimize(s, repro.Weights{W1: 0.5, W2: 0.5}, repro.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeJointWeighted measures one joint weighted solve (the
// search over the round deadline, one deadline solve per point) at the
// paper's default N = 50 and balanced weights.
func BenchmarkOptimizeJointWeighted(b *testing.B) {
	sc := repro.DefaultScenario()
	s, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Optimize(s, repro.Weights{W1: 0.5, W2: 0.5}, repro.Options{JointWeighted: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeDeadline measures the dual-decomposition deadline solve
// (the Figs. 7-8 workhorse) at N = 50.
func BenchmarkOptimizeDeadline(b *testing.B) {
	sc := repro.DefaultScenario()
	s, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Optimize(s, repro.Weights{W1: 1, W2: 0},
			repro.Options{Mode: repro.ModeDeadline, TotalDeadline: 120}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeScale measures both solve modes on cells of 500 and
// 5,000 devices, the paper's defaults otherwise. The deadline grows with
// N (T = 120 s at N = 50) to keep the instances about as tight.
func BenchmarkOptimizeScale(b *testing.B) {
	for _, n := range []int{500, 5000} {
		sc := repro.DefaultScenario()
		sc.N = n
		s, err := sc.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		modes := []struct {
			name string
			w    repro.Weights
			opts repro.Options
		}{
			{"weighted", repro.Weights{W1: 0.5, W2: 0.5}, repro.Options{}},
			{"deadline", repro.Weights{W1: 1}, repro.Options{Mode: repro.ModeDeadline, TotalDeadline: 120 * float64(n) / 50}},
		}
		for _, m := range modes {
			b.Run("N="+strconv.Itoa(n)+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := repro.Optimize(s, m.w, m.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMinCompletionTime measures the min-max time waterfilling.
func BenchmarkMinCompletionTime(b *testing.B) {
	sc := repro.DefaultScenario()
	s, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.MinCompletionTime(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheme1 measures the Scheme 1 baseline at N = 50.
func BenchmarkScheme1(b *testing.B) {
	sc := repro.DefaultScenario()
	s, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Scheme1(s, 120); err != nil {
			b.Fatal(err)
		}
	}
}

// serveBenchSystem builds the N=15 deployment shared by the serving
// benchmarks (small enough that per-iteration solves keep b.N reasonable).
func serveBenchSystem(b *testing.B) *repro.System {
	b.Helper()
	sc := repro.DefaultScenario()
	sc.N = 15
	s, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// driftBench multiplies every gain by a fresh log-normal factor, forcing a
// new exact fingerprint while keeping the topology bucket.
func driftBench(s *repro.System, sigma float64, rng *rand.Rand) *repro.System {
	out := *s
	out.Devices = append([]repro.Device(nil), s.Devices...)
	for i := range out.Devices {
		out.Devices[i].Gain *= math.Exp(sigma * rng.NormFloat64())
	}
	return &out
}

// BenchmarkServeCold measures the serving path with the cache disabled:
// every request is a from-scratch solve.
func BenchmarkServeCold(b *testing.B) {
	base := serveBenchSystem(b)
	srv := repro.NewServer(repro.ServeConfig{DisableCache: true})
	defer srv.Close()
	rng := rand.New(rand.NewSource(2))
	w := repro.Weights{W1: 0.5, W2: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := driftBench(base, 0.3, rng)
		if _, err := srv.Solve(context.Background(), repro.ServeRequest{System: s, Weights: w}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCached measures repeated identical requests: after the
// first solve every iteration is an exact-fingerprint cache hit.
func BenchmarkServeCached(b *testing.B) {
	s := serveBenchSystem(b)
	srv := repro.NewServer(repro.ServeConfig{})
	defer srv.Close()
	w := repro.Weights{W1: 0.5, W2: 0.5}
	if _, err := srv.Solve(context.Background(), repro.ServeRequest{System: s, Weights: w}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Solve(context.Background(), repro.ServeRequest{System: s, Weights: w}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeDrift measures drifted requests through the default server:
// every iteration misses the exact fingerprint and solves cold, paying the
// cache lookup and insert on top of BenchmarkServeCold.
func BenchmarkServeDrift(b *testing.B) {
	benchServeDrift(b, repro.ServeConfig{}, nil)
}

// BenchmarkServeTraced is BenchmarkServeDrift with the full telemetry
// plane live: a collector at the default 1-in-16 sampling starts and
// finishes one solve-lifecycle trace per iteration, the server records
// fingerprint/cache/queue/solve spans into it, and every finished trace is
// exported through a span exporter into a local aggregator (the
// single-process assembly path) AND folded into the flight
// recorder, exactly as the serving cmds wire it. The gap to
// BenchmarkServeDrift (the nil-collector fast path) is the tracing +
// export + flight-event overhead.
func BenchmarkServeTraced(b *testing.B) {
	col := repro.NewObsCollector(repro.ObsConfig{})
	agg := repro.NewTelemetryAggregator(repro.TelemetryAggregatorConfig{})
	exp := repro.NewTelemetryExporter(repro.TelemetryExporterConfig{Origin: "bench", Local: agg})
	flight := repro.NewFlightRecorder(0)
	col.SetSink(func(t repro.ObsTraceJSON) {
		exp.Enqueue(t)
		flight.Observe(t)
	})
	defer exp.Close()
	benchServeDrift(b, repro.ServeConfig{}, col)
}

func benchServeDrift(b *testing.B, cfg repro.ServeConfig, col *repro.ObsCollector) {
	b.Helper()
	base := serveBenchSystem(b)
	srv := repro.NewServer(cfg)
	defer srv.Close()
	rng := rand.New(rand.NewSource(2))
	w := repro.Weights{W1: 0.5, W2: 0.5}
	if _, err := srv.Solve(context.Background(), repro.ServeRequest{System: base, Weights: w}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := driftBench(base, 0.3, rng)
		ctx, tr := col.StartTrace(context.Background())
		_, err := srv.Solve(ctx, repro.ServeRequest{System: s, Weights: w})
		tr.Finish()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBatch measures the amortized batch path: each op posts one
// SolveBatch of serveBatchSize drifted instances at bulk priority (so ns/op
// is per batch; divide by serveBatchSize for per-instance cost).
func BenchmarkServeBatch(b *testing.B) {
	const serveBatchSize = 16
	base := serveBenchSystem(b)
	srv := repro.NewServer(repro.ServeConfig{})
	defer srv.Close()
	rng := rand.New(rand.NewSource(2))
	w := repro.Weights{W1: 0.5, W2: 0.5}
	if _, err := srv.Solve(context.Background(), repro.ServeRequest{System: base, Weights: w}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := make([]repro.ServeRequest, serveBatchSize)
		for j := range reqs {
			reqs[j] = repro.ServeRequest{System: driftBench(base, 0.3, rng), Weights: w}
		}
		for j, it := range srv.SolveBatch(context.Background(), reqs, repro.ServePriorityBulk) {
			if it.Err != nil {
				b.Fatalf("batch item %d: %v", j, it.Err)
			}
		}
	}
	b.ReportMetric(serveBatchSize, "inst/op")
}

// BenchmarkDecodeSolveBatch measures the solve-batch ingress alone: one
// body of 8 drifted deadline-mode N=50 instances, the shape the
// deadline-batch workload posts, read and decoded by serve.ReadBatchRequest
// into validated requests.
func BenchmarkDecodeSolveBatch(b *testing.B) {
	sc := repro.DefaultScenario()
	sc.N = 50
	base, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	in := repro.SolveBatchRequestJSON{Priority: "bulk"}
	for i := 0; i < 8; i++ {
		req := repro.SolveRequestJSON{System: repro.SystemToJSON(driftBench(base, 0.3, rng)), Mode: "deadline", TotalDeadlineS: 120}
		req.Weights.W1, req.Weights.W2 = 0.5, 0.5
		in.Requests = append(in.Requests, req)
	}
	body, err := json.Marshal(in)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve-batch", bytes.NewReader(body))
		dec, ok := serve.ReadBatchRequest(httptest.NewRecorder(), r)
		if !ok || len(dec.Valid()) != len(in.Requests) {
			b.Fatalf("batch did not decode: ok %v, %d valid", ok, len(dec.Valid()))
		}
	}
}

// streamBenchSystem builds the N=50 deployment of the streaming benchmarks:
// the paper's default population, where re-POSTing the whole system per
// 3-gain drift is the most wasteful (the regime the subsystem targets).
func streamBenchSystem(b *testing.B) *repro.System {
	b.Helper()
	sc := repro.DefaultScenario()
	s, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// streamBenchSetup opens one delta session over the full wrapped HTTP stack
// (server + stream manager + httptest) and returns the base URL, session ID
// and a cleanup.
func streamBenchSetup(b *testing.B, base *repro.System) (string, string, func()) {
	b.Helper()
	srv := repro.NewServer(repro.ServeConfig{})
	mgr := repro.NewStreamManager(repro.NewStreamServeBackend(srv), repro.StreamConfig{})
	ts := httptest.NewServer(repro.StreamHandler(mgr))
	cleanup := func() {
		ts.Close()
		mgr.Close()
		srv.Close()
	}
	req := repro.SolveRequestJSON{System: repro.SystemToJSON(base)}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("open session: status %d", resp.StatusCode)
	}
	var open repro.StreamOpenResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&open); err != nil {
		b.Fatal(err)
	}
	return ts.URL, open.SessionID, cleanup
}

// sparseDriftDelta drifts k random gains of s in place and returns the
// delta wire form carrying their new absolute values.
func sparseDriftDelta(s *repro.System, seq uint64, k int, sigma float64, rng *rand.Rand) repro.StreamDeltaJSON {
	d := repro.StreamDeltaJSON{Seq: seq, Gains: make(map[int]float64, k)}
	for len(d.Gains) < k {
		i := rng.Intn(s.N())
		if _, ok := d.Gains[i]; ok {
			continue
		}
		g := s.Devices[i].Gain * math.Exp(sigma*rng.NormFloat64())
		d.Gains[i] = g
		s.Devices[i].Gain = g
	}
	return d
}

// BenchmarkStreamDelta measures the streaming subsystem on its canonical
// workload — a per-device gain-delta stream: each op posts ONE NDJSON delta
// carrying one drifted gain of the N=50 system to an open session and reads
// the re-solve back. The session re-fingerprints incrementally; every
// drift is a new exact instance and re-solves cold, and delta solves never
// enter the shared cache, so cache/op reads 0. Its counterpart
// BenchmarkStreamRepostCold pays the full client re-POST + cold solve for
// the identical drift stream.
func BenchmarkStreamDelta(b *testing.B) {
	base := streamBenchSystem(b)
	url, session, cleanup := streamBenchSetup(b, base)
	defer cleanup()
	rng := rand.New(rand.NewSource(2))
	var cached int
	seq := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		body, err := json.Marshal(sparseDriftDelta(base, seq, 1, 0.05, rng))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/stream/"+session+"/deltas", repro.StreamNDJSONContentType, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var u repro.StreamUpdateJSON
		err = json.NewDecoder(resp.Body).Decode(&u)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if !u.OK || u.Result == nil {
			b.Fatalf("delta %d: %+v", seq, u)
		}
		if u.Result.Source == string(repro.ServeSourceCache) {
			cached++
		}
	}
	b.ReportMetric(float64(cached)/float64(b.N), "cache/op")
}

// massHandoffSetup builds a 2-cell cluster with `devices` distinct devices
// served (and pinned) in cell 0, each with one cached solution to migrate. A
// stub solver keeps the setup about migration machinery, not solve time: the
// benchmarks move state, they never re-solve it.
func massHandoffSetup(b *testing.B, devices int) (*repro.Cluster, []string) {
	b.Helper()
	const n = 12
	stub := func(s *repro.System, w repro.Weights, o repro.Options) (repro.Result, error) {
		var res repro.Result
		res.Allocation.Power = make([]float64, s.N())
		res.Allocation.Bandwidth = make([]float64, s.N())
		res.Allocation.Freq = make([]float64, s.N())
		for i, d := range s.Devices {
			res.Allocation.Power[i] = d.PMax
			res.Allocation.Bandwidth[i] = s.Bandwidth / float64(s.N())
			res.Allocation.Freq[i] = d.FMax
		}
		return res, nil
	}
	cl := repro.NewCluster(repro.ClusterConfig{
		Cells:      2,
		Cell:       repro.ServeConfig{Workers: 2, CacheEntries: 2 * devices, Solver: stub},
		MaxDevices: 2 * devices,
	})
	b.Cleanup(cl.Close)

	sc := repro.DefaultScenario()
	sc.N = n
	base, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	devs := make([]string, devices)
	w := repro.Weights{W1: 0.5, W2: 0.5}
	for d := range devs {
		devs[d] = "ue-" + strconv.Itoa(d)
		// Distinct gains per device: every device owns its own fingerprint.
		if _, _, err := cl.Solve(context.Background(), 0, devs[d], repro.ServeRequest{System: driftBench(base, 0.3, rng), Weights: w}); err != nil {
			b.Fatal(err)
		}
	}
	return cl, devs
}

// BenchmarkMassHandoff measures the batched mass-mobility migration: per
// op, ONE MassHandoff call moves all 1000 devices' cached solutions to
// the other cell (directions alternate so
// every op moves the full population). One routing-lock acquisition and
// one bulk extract/inject per cell, recorded fingerprints reused — compare
// BenchmarkHandoffPerDevice, which migrates the identical population
// through the sequential per-device Handoff loop the control plane
// replaces.
func BenchmarkMassHandoff(b *testing.B) {
	const devices = 1000
	cl, devs := massHandoffSetup(b, devices)
	there := make([]repro.ClusterMove, devices)
	back := make([]repro.ClusterMove, devices)
	for d, dev := range devs {
		there[d] = repro.ClusterMove{DeviceID: dev, To: 1}
		back[d] = repro.ClusterMove{DeviceID: dev, To: 0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves := there
		if i%2 == 1 {
			moves = back
		}
		rep, err := cl.MassHandoff(context.Background(), moves, true)
		if err != nil {
			b.Fatal(err)
		}
		if rep.MigratedResults != devices {
			b.Fatalf("op %d migrated %d results, want %d", i, rep.MigratedResults, devices)
		}
	}
	b.ReportMetric(devices, "dev/op")
}

// BenchmarkHandoffPerDevice is the pre-control-plane equivalent of
// BenchmarkMassHandoff: the same 1000-device population migrated by
// calling Handoff once per device — per device, one full instance
// re-fingerprint, a routing-lock round trip and per-entry cache
// operations. The gap to BenchmarkMassHandoff is what batching buys a
// mass-mobility event (ns/op is per full 1000-device migration in both).
func BenchmarkHandoffPerDevice(b *testing.B) {
	const devices = 1000
	cl, devs := massHandoffSetup(b, devices)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := 0, 1
		if i%2 == 1 {
			from, to = 1, 0
		}
		migrated := 0
		for _, dev := range devs {
			rep, err := cl.Handoff(context.Background(), dev, from, to)
			if err != nil {
				b.Fatal(err)
			}
			migrated += rep.MigratedResults
		}
		if migrated != devices {
			b.Fatalf("op %d migrated %d results, want %d", i, migrated, devices)
		}
	}
	b.ReportMetric(devices, "dev/op")
}

// BenchmarkStreamRepostCold is the same drifting workload served the
// pre-stream way: the client re-POSTs the ENTIRE system to /v1/solve for
// every single-gain drift, and the server (cache disabled,
// as for a stateless client whose every instance is new to the server)
// solves cold. The gap to BenchmarkStreamDelta is what the delta subsystem
// buys end to end.
func BenchmarkStreamRepostCold(b *testing.B) {
	base := streamBenchSystem(b)
	srv := repro.NewServer(repro.ServeConfig{DisableCache: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rng := rand.New(rand.NewSource(2))
	seq := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		sparseDriftDelta(base, seq, 1, 0.05, rng) // identical drift stream
		req := repro.SolveRequestJSON{System: repro.SystemToJSON(base)}
		req.Weights.W1, req.Weights.W2 = 0.5, 0.5
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out repro.SolveResponseJSON
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if out.Source != string(repro.ServeSourceCold) {
			b.Fatalf("repost source %q, want cold", out.Source)
		}
	}
}

// BenchmarkFedAvgRound measures one FedAvg aggregation round (20 devices,
// 500 samples each, 5 local iterations, dim 9).
func BenchmarkFedAvgRound(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ds, _ := repro.SyntheticLogistic(rng, 20*500, 8, 0.05)
	shards, err := repro.SplitEqual(ds, 20)
	if err != nil {
		b.Fatal(err)
	}
	cfg := repro.FedAvgConfig{LocalIters: 5, GlobalRounds: 1, LearningRate: 0.5, Dim: 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.TrainFedAvg(cfg, shards, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRoutedCached measures the multi-cell router's hit path:
// device-routed requests answered from the pinned cell's solution cache
// (router overhead = fingerprint + pin lookup on top of the cache read).
func BenchmarkClusterRoutedCached(b *testing.B) {
	s := serveBenchSystem(b)
	cl := repro.NewCluster(repro.ClusterConfig{Cells: 4})
	defer cl.Close()
	w := repro.Weights{W1: 0.5, W2: 0.5}
	req := repro.ServeRequest{System: s, Weights: w}
	if _, _, err := cl.Solve(context.Background(), repro.ClusterCellAuto, "bench-dev", req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Solve(context.Background(), repro.ClusterCellAuto, "bench-dev", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterHandoff measures one cross-cell device handoff carrying
// a full per-device history (8 instances re-fingerprinted and migrated),
// ping-ponging the device between two cells.
func BenchmarkClusterHandoff(b *testing.B) {
	base := serveBenchSystem(b)
	cl := repro.NewCluster(repro.ClusterConfig{Cells: 2})
	defer cl.Close()
	rng := rand.New(rand.NewSource(2))
	w := repro.Weights{W1: 0.5, W2: 0.5}
	for i := 0; i < 8; i++ {
		s := driftBench(base, 0.3, rng)
		if _, _, err := cl.Solve(context.Background(), 0, "bench-dev", repro.ServeRequest{System: s, Weights: w}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := i%2, (i+1)%2
		if _, err := cl.Handoff(context.Background(), "bench-dev", from, to); err != nil {
			b.Fatal(err)
		}
	}
}
