// Command bench is the end-to-end benchmark of the allocation service. It
// builds the flserved and flcluster serving stacks in-process from the
// public repro facade, drives them over loopback HTTP from at most two
// sender goroutines with one keep-alive connection each (an open-loop
// Poisson schedule per sender, or a closed loop for the offline batch
// workload), checks every answer, and prints each metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// It exits non-zero when any check fails. Run it from the repository root
// (bench/run.sh builds it from source first):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh -smoke                       # every workload, 1 s at 5% load
//	bash bench/run.sh -runs 5 -pin bench/baseline.json
//	bash bench/run.sh -runs 3 -compare bench/baseline.json
//
// -trace 1 (or -traced) measures the per-layer metrics instead: half the
// window untraced and half with probes at the stack's public seams.
// bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro"
)

func main() {
	if _, err := repro.ObsSetupLogger(os.Stderr, "error", false); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// The senders get Ps of their own, as a separate client process would
	// have threads of its own: with only NumCPU Ps, a sender whose sleep
	// ends while both Ps run solves waits for one to finish, and that
	// scheduling delay lands in its send times. The serving stacks keep
	// NumCPU solver workers per cell, as the commands do by default, but
	// their handlers share the extra Ps too, which the commands' stacks do
	// not have; README.md describes the difference.
	runtime.GOMAXPROCS(runtime.NumCPU() + senderCount())
	os.Exit(run(os.Args[1:], os.Stdout, nil))
}

// config is one invocation's settings.
type config struct {
	workloads []*workload
	seed      int64
	seconds   float64
	scale     float64 // multiplies every workload's arrival rate
	smoke     bool    // one set-up per run
	traced    bool
	runs      int
	solver    solveFunc // nil serves with repro.Optimize
}

// result is one run of one workload.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// raw holds the host-scaled metrics as measured, before scaling, and
	// probeMs the host probe's mean (see hostprobe.go).
	raw     map[string]float64
	probeMs float64
	errs    []error
	invalid string // why an open-loop run is invalid, "" when valid
	note    string // the run's shape, for the report
}

// lagLimit and backlogGrace are the validity checks of an open-loop run: a
// generator that itself sends more than lagLimit late at p99 (counted from
// when an op was due and its connection free), or that leaves ops
// unanswered backlogGrace after the schedule ends, measured itself or a
// growing backlog, not the stack. Such a run is measured again up to
// invalidRetries times, and the command fails if it stays invalid.
const (
	lagLimit       = 5 * time.Millisecond
	backlogGrace   = time.Second
	invalidRetries = 2
)

// run is main without the process exit; solver replaces the serving solver
// (tests stub it).
func run(args []string, stdout io.Writer, solver solveFunc) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	traced := fs.Bool("traced", false, "same as -trace 1")
	smoke := fs.Bool("smoke", false, "1 s per workload at 5% of the rates, one set-up per run")
	runs := fs.Int("runs", 1, "runs per workload; each metric is the median over them")
	pin := fs.String("pin", "", "write the end-to-end medians to this baseline file")
	compare := fs.String("compare", "", "fail when a metric drifts past its bound from this baseline file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c := &config{seed: *seed, seconds: *seconds, scale: 1, smoke: *smoke, traced: *traced || *trace == 1, runs: *runs, solver: solver}
	if *smoke {
		c.seconds, c.scale = 1, 0.05
	}
	if *name == "" {
		for i := range workloads {
			c.workloads = append(c.workloads, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		c.workloads = []*workload{w}
	}
	if c.seconds <= 0 || c.runs < 1 || (c.traced && (*pin != "" || *compare != "")) {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0 and -runs >= 1; -pin and -compare take end-to-end runs")
		return 2
	}

	// Runs alternate between workloads, so a slow spell on the machine
	// spreads over all of them instead of landing on one.
	all := make([][]result, len(c.workloads))
	for r := 0; r < c.runs; r++ {
		for i, w := range c.workloads {
			seed := c.seed + int64(r)
			res := runOnce(w, c, seed)
			report(stdout, w, c, seed, res)
			// An invalid window measured the generator or a backlog, not the
			// stack, so it is measured again; a run that also failed a check
			// stands, since it fails anyway.
			for retry := 0; retry < invalidRetries && res.invalid != "" && len(res.errs) == 0 && res.failed == 0; retry++ {
				fmt.Fprintf(stdout, "  measuring %s seed %d again (%d of %d)\n", w.name, seed, retry+1, invalidRetries)
				res = runOnce(w, c, seed)
				report(stdout, w, c, seed, res)
			}
			all[i] = append(all[i], res)
		}
	}

	correct, attempted, failed := true, 0, 0
	invalid := false // a run stayed invalid: its numbers are not reported as valid
	medians := make(map[string]map[string]float64)
	out := make(map[string]any)
	for i, w := range c.workloads {
		valid := true
		for _, res := range all[i] {
			attempted += res.attempted
			failed += res.failed
			correct = correct && len(res.errs) == 0 && res.failed == 0
			valid = valid && res.invalid == ""
		}
		med := medianMetrics(all[i])
		if valid {
			medians[w.name] = med
		} else {
			fmt.Fprintf(os.Stderr, "bench: %s: a run stayed invalid after %d more; it is neither pinned nor compared\n", w.name, invalidRetries)
			invalid = true
		}
		defs := layerMetrics
		if !c.traced {
			defs = gatedMetrics()
		}
		for _, d := range defs {
			key := d.name
			if len(c.workloads) > 1 {
				key = w.name + "." + d.name
			}
			if v, ok := med[d.name]; ok {
				out[key] = map[string]any{"value": v, "unit": d.unit}
			}
		}
	}
	ok := correct && !invalid
	if *pin != "" {
		if err := writeBaseline(*pin, c, medians); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	if *compare != "" {
		within, err := compareBaseline(stdout, *compare, medians)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		ok = ok && within && err == nil
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

func gatedMetrics() []metricDef {
	var out []metricDef
	for _, d := range e2eMetrics {
		if d.gated {
			out = append(out, d)
		}
	}
	return out
}

// medianMetrics takes, per metric, the median over the runs that report it
// (a metric missing from any run is left out).
func medianMetrics(rs []result) map[string]float64 {
	out := make(map[string]float64)
	for k := range rs[0].metrics {
		var vals []float64
		for _, r := range rs {
			if v, ok := r.metrics[k]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == len(rs) {
			out[k] = median(vals)
		}
	}
	return out
}

// runOnce measures one workload: the end-to-end metrics, or with c.traced
// the per-layer metrics of a traced half-window plus the tracing overhead
// against an untraced half-window.
func runOnce(w *workload, c *config, seed int64) result {
	if !c.traced {
		return measure(w, c, seed, c.seconds, !c.smoke, nil)
	}
	ref := measure(w, c, seed, c.seconds/2, false, nil)
	res := measure(w, c, seed, c.seconds/2, false, &probe{})
	res.attempted += ref.attempted
	res.failed += ref.failed
	res.errs = append(ref.errs, res.errs...)
	if res.invalid == "" {
		res.invalid = ref.invalid
	}
	if base := ref.metrics["latency_p50_ms"]; base > 0 {
		res.metrics["overhead.latency_p50_share"] = res.metrics["latency_p50_ms"]/base - 1
	}
	return res
}

// Set-up repeats: setup_s is the median of at least minSetups set-ups, and
// cheap set-ups repeat while they stay within setupBudget (up to
// maxSetups), since a short set-up's median needs more samples to steady.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// medianSlices is how many equal slices of the window latency_p50_ms takes
// the median of.
const medianSlices = 5

// measure builds and primes the workload's stack (repeatedly when repeat is
// set; setup_s is the median), then measures one window on the last stack.
// With a probe it also computes the per-layer metrics.
func measure(w *workload, c *config, seed int64, seconds float64, repeat bool, p *probe) (res result) {
	res.metrics, res.raw = make(map[string]float64), make(map[string]float64)
	sp, err := w.newSpec(seed, seconds, w.rate*c.scale)
	if err != nil {
		res.errs = append(res.errs, fmt.Errorf("generating inputs: %w", err))
		return res
	}
	hp := startHostProbe()
	defer hp.finish()
	var st *stack
	var setupS []float64
	spent := 0.0
	setupBegan := time.Now()
	for len(setupS) == 0 || repeat && (len(setupS) < minSetups || len(setupS) < maxSetups && spent < setupBudget.Seconds()) {
		if st != nil {
			st.close()
		}
		runtime.GC() // start each set-up from a clean heap
		began := time.Now()
		st = newStack(w.cluster, c.solver, p)
		if err := sp.prime(st); err != nil {
			st.close()
			res.errs = append(res.errs, err)
			return res
		}
		setupS = append(setupS, time.Since(began).Seconds())
		spent += setupS[len(setupS)-1]
	}
	setupSpeed := probeRef / hp.mean(setupBegan, time.Now())
	defer st.close()
	plans := sp.plan(st)
	span := time.Duration(seconds * float64(time.Second))
	var closed time.Duration
	if w.rate == 0 {
		closed = span
	}

	var firstID []int
	var times *opTimes
	var solves0 int
	if p != nil {
		total := 0
		for _, plan := range plans {
			firstID = append(firstID, total)
			total += len(plan)
		}
		times, solves0 = p.track(total), p.solveCount()
	}
	runtime.GC() // the window starts from a clean heap
	before := snapshot(st)
	began := time.Now()
	recs := drive(st.url, plans, closed, firstID)
	ended := time.Now()
	after := snapshot(st)
	hp.finish()
	res.probeMs = hp.mean(began, ended)

	// Flatten in plan order. Every open-loop op runs and the closed loop has
	// one sender, so op i of plan s lands at index firstID[s]+i, where the
	// traced run's probes filed it. An open loop's latencies are also sorted
	// into slices of the window by scheduled send; the closed loop's few
	// answers stay in one.
	nSlices := medianSlices
	if closed > 0 {
		nSlices = 1
	}
	var ops []*op
	var rs []*rec
	var lats []time.Duration
	slices := make([][]time.Duration, nSlices)
	var last time.Duration
	sloMet := 0
	for s := range recs {
		for i := range recs[s] {
			o, r := &plans[s][i], &recs[s][i]
			ops, rs = append(ops, o), append(rs, r)
			res.attempted += o.instances()
			last = max(last, r.done)
			if r.err != nil {
				res.failed += o.instances()
				if len(res.errs) < 5 {
					res.errs = append(res.errs, r.err)
				}
				continue
			}
			lats = append(lats, r.lat)
			k := min(int(int64(o.due)*int64(nSlices)/int64(span)), nSlices-1)
			slices[k] = append(slices[k], r.lat)
			if float64(r.lat)/float64(time.Millisecond) <= w.sloMs {
				sloMet++
			}
		}
	}
	// Costs are scaled to the reference host's speed over the span they were
	// measured in; the raw values stay in res.raw. An open loop's throughput
	// is set by its schedule, not by the host, so it is reported as measured.
	m, speed := res.metrics, probeRef/res.probeMs
	scaled := func(name string, v, factor float64) {
		res.raw[name], m[name] = v, v*factor
	}
	scaled("setup_s", median(setupS), setupSpeed)
	throughput := share(float64(res.attempted-res.failed), last.Seconds())
	if closed > 0 {
		scaled("throughput_rps", throughput, 1/speed)
	} else {
		m["throughput_rps"] = throughput
	}
	// The median latency is the median of the slices' medians, each scaled
	// over its own slice: a host stall within one or two slices moves it
	// little, where it would move the median of the pooled latencies.
	var p50s, rawP50s []float64
	for k, ls := range slices {
		if len(ls) == 0 {
			continue
		}
		v, _ := percentile(durationsMs(ls), 0.5)
		from := began.Add(span * time.Duration(k) / time.Duration(nSlices))
		rawP50s = append(rawP50s, v)
		p50s = append(p50s, v*probeRef/hp.mean(from, from.Add(span/time.Duration(nSlices))))
	}
	res.raw["latency_p50_ms"], m["latency_p50_ms"] = median(rawP50s), median(p50s)
	latMs := durationsMs(lats)
	if v, ok := percentile(latMs, 0.99); ok {
		scaled("latency_p99_ms", v, speed)
	}
	if v, ok := percentile(latMs, 0.999); ok {
		scaled("latency_p999_ms", v, speed)
	}
	if closed == 0 {
		m["slo_met_share"] = share(float64(sloMet), float64(len(rs)))
	}
	m["fail_share"] = share(float64(res.failed), float64(res.attempted))
	scaled("cpu_ms_per_op", share((after.cpu-before.cpu).Seconds()*1e3, float64(res.attempted)), speed)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["retained_heap_mb"] = float64(ms.HeapAlloc) / 1e6
	var sampledOps []*op
	var sampledRecs []*rec
	for k, o := range ops {
		if o.sampled {
			sampledOps, sampledRecs = append(sampledOps, o), append(sampledRecs, rs[k])
		}
	}
	limit := objectiveSamples
	if closed > 0 {
		limit = batchSamples
	}
	if obj, err := objective(sampledOps, sampledRecs, limit); err != nil {
		res.errs = append(res.errs, err)
	} else {
		m["objective_rel"] = obj
	}

	var schedEnd time.Duration // the open loop's last scheduled send
	if closed == 0 {
		schedEnd = span
	}
	lg := loadgenStats(rs, schedEnd)
	if closed == 0 && (lg.genLagP99 > float64(lagLimit)/float64(time.Millisecond) || lg.backlog > 0) {
		res.invalid = fmt.Sprintf("generator lag p99 %.2f ms (limit %v), %d ops unanswered %v after the schedule",
			lg.genLagP99, lagLimit, lg.backlog, backlogGrace)
	}
	res.note = fmt.Sprintf("%d requests over %d senders in %.1f s", len(rs), len(plans), last.Seconds())
	if closed > 0 && len(rs) == len(plans[0]) {
		res.note += "; the pre-generated batches ran out before the window closed"
	}
	if p != nil {
		layerStats(m, st, ops, rs, lg, times, p.solvesSince(solves0), before, after, last)
		m["host.probe_ms"] = res.probeMs
	}
	return res
}

// lagReport is how closely an open-loop generator kept its schedule.
type lagReport struct {
	lagP99    float64 // ms: send lateness, waits for the connection included
	genLagP99 float64 // ms: the generator's own lateness
	lateShare float64 // ops sent more than 1 ms late
	backlog   int     // ops unanswered backlogGrace after the schedule ended
}

// loadgenStats summarizes the records of a window whose schedule ended at
// schedEnd (0 for a closed loop, which has no backlog).
func loadgenStats(rs []*rec, schedEnd time.Duration) lagReport {
	var lags, genLags []time.Duration
	var rep lagReport
	late := 0
	for _, r := range rs {
		lags, genLags = append(lags, r.lag), append(genLags, r.genLag)
		if r.lag > time.Millisecond {
			late++
		}
		if schedEnd > 0 && r.done > schedEnd+backlogGrace {
			rep.backlog++
		}
	}
	rep.lagP99, _ = percentile(durationsMs(lags), 0.99)
	rep.genLagP99, _ = percentile(durationsMs(genLags), 0.99)
	rep.lateShare = share(float64(late), float64(len(rs)))
	return rep
}

// counters is the process and stack state at one edge of a window.
type counters struct {
	cpu            time.Duration // process user+sys
	mallocs        uint64
	allocBytes     uint64
	gcCPU, busyCPU float64 // runtime/metrics CPU-class estimates, s
	serve          repro.ServeStats
	cluster        repro.ClusterAggregate
	stream         repro.StreamSnapshot
}

func snapshot(st *stack) counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
		c.busyCPU = samples[1].Value.Float64() - samples[2].Value.Float64()
	}
	c.serve = st.serveStats()
	if st.cl != nil {
		c.cluster = st.cl.Stats().Aggregate
	}
	c.stream = st.mgr.Stats()
	return c
}

// layerStats fills the per-layer metrics of a traced window that lasted
// window. The codec, fingerprint and route timings replay a sample of the
// window's ops offline.
func layerStats(m map[string]float64, st *stack, ops []*op, rs []*rec, lg lagReport, times *opTimes, solves []solveSample, before, after counters, window time.Duration) {
	for _, d := range layerMetrics {
		m[d.name] = 0 // stays 0 where the layer is off the workload's path
	}
	m["loadgen.lag_p99_ms"] = lg.lagP99
	m["loadgen.gen_lag_p99_ms"] = lg.genLagP99
	m["loadgen.late_share"] = lg.lateShare
	m["loadgen.backlog_end"] = float64(lg.backlog)
	sample := ops[:min(len(ops), objectiveSamples)]
	var server, overhead, handoff, backend []time.Duration
	var selfSum time.Duration
	deltas := 0
	for k, o := range ops {
		r := rs[k]
		srv := time.Duration(times.server[k].Load())
		if r.err != nil || srv == 0 {
			continue
		}
		server = append(server, srv)
		overhead = append(overhead, r.done-r.sent-srv)
		switch o.kind {
		case opHandoff:
			handoff = append(handoff, srv)
		case opDelta:
			be := time.Duration(times.backend[k].Load())
			backend = append(backend, be)
			selfSum += srv - be
			deltas++
		}
	}
	pct := func(ds []time.Duration, q float64) float64 {
		v, ok := percentile(durationsMs(ds), q)
		if !ok && q > 0.5 {
			return 0
		}
		return v
	}
	m["http.server_p50_ms"] = pct(server, 0.5)
	m["http.server_p99_ms"] = pct(server, 0.99)
	m["http.client_overhead_p50_ms"] = pct(overhead, 0.5)
	m["http.decode_us"] = meanMicros(len(sample), func(i int) { _ = decodeRequest(sample[i]) })
	m["http.encode_us"] = encodeTime(ops, rs)

	s0, s1 := before.serve, after.serve
	reqs := float64(s1.Requests - s0.Requests)
	m["serve.hit_share"] = share(float64(s1.Hits-s0.Hits), reqs)
	m["serve.warm_share"] = share(float64(s1.WarmStarts-s0.WarmStarts), reqs)
	m["serve.cold_share"] = share(float64(s1.ColdSolves-s0.ColdSolves), reqs)
	m["serve.dedup_share"] = share(float64(s1.Deduped-s0.Deduped), reqs)
	m["serve.rejected"] = float64(s1.Rejected - s0.Rejected)
	m["serve.queue_wait_p50_ms"] = s1.QueueWaitP50 * 1e3
	m["serve.queue_wait_p99_ms"] = s1.QueueWaitP99 * 1e3
	m["serve.hit_p50_us"] = s1.CacheHitP50 * 1e6
	m["serve.fingerprint_us"] = meanMicros(len(sample), func(i int) {
		for _, in := range sample[i].inst {
			repro.FingerprintInstance(in.sys, in.w, referenceOptions(in), repro.ServeQuantization{GainResolutionDB: stackGainResDB})
		}
	})

	if st.cl != nil {
		c0, c1 := before.cluster, after.cluster
		var devices []string
		for _, o := range sample {
			if o.handoff != nil {
				devices = append(devices, o.handoff.DeviceID)
			} else if o.kind == opSolve {
				var req repro.SolveRequestJSON
				if json.Unmarshal(o.body, &req) == nil && req.DeviceID != "" {
					devices = append(devices, req.DeviceID)
				}
			}
		}
		m["cluster.route_us"] = meanMicros(len(devices), func(i int) { st.cl.Route(devices[i]) })
		m["cluster.routed_pinned"] = float64(c1.RoutedPinned - c0.RoutedPinned)
		m["cluster.routed_hashed"] = float64(c1.RoutedHashed - c0.RoutedHashed)
		m["cluster.migrated_results"] = float64(c1.MigratedResults - c0.MigratedResults)
	}
	m["cluster.handoff_p50_ms"] = pct(handoff, 0.5)
	m["cluster.handoff_p99_ms"] = pct(handoff, 0.99)

	var walls []time.Duration
	var busy, sp1, sp2 time.Duration
	newton, outer := 0, 0
	for _, s := range solves {
		walls = append(walls, s.wall)
		busy += s.wall
		sp1 += s.sp1
		sp2 += s.sp2
		newton += s.newton
		outer += s.outer
	}
	calls := float64(len(solves))
	m["core.calls"] = calls
	m["core.solve_p50_ms"] = pct(walls, 0.5)
	m["core.solve_p99_ms"] = pct(walls, 0.99)
	m["core.busy_share"] = share(busy.Seconds(), window.Seconds()*float64(runtime.NumCPU()))
	m["core.sp1_ms_mean"] = share(sp1.Seconds()*1e3, calls)
	m["core.sp2_ms_mean"] = share(sp2.Seconds()*1e3, calls)
	m["core.newton_per_call"] = share(float64(newton), calls)
	m["core.outer_per_call"] = share(float64(outer), calls)

	d0, d1 := before.stream, after.stream
	nd := float64(d1.Deltas - d0.Deltas)
	m["stream.deltas"] = nd
	m["stream.coalesced_share"] = share(float64(d1.DeltasCoalesced-d0.DeltasCoalesced), nd)
	m["stream.warm_share"] = share(float64(d1.SolveWarm-d0.SolveWarm), nd)
	m["stream.backend_p50_ms"] = pct(backend, 0.5)
	m["stream.self_ms_mean"] = share(selfSum.Seconds()*1e3, float64(deltas))

	n := float64(len(ops))
	m["runtime.allocs_per_op"] = share(float64(after.mallocs-before.mallocs), n)
	m["runtime.alloc_bytes_per_op"] = share(float64(after.allocBytes-before.allocBytes), n)
	m["runtime.gc_cpu_share"] = share(after.gcCPU-before.gcCPU, after.busyCPU-before.busyCPU)
}

// encodeTime is the mean time to JSON-encode one of the window's sampled
// answers, in microseconds.
func encodeTime(ops []*op, rs []*rec) float64 {
	var answers []any
	for k, o := range ops {
		if rs[k].raw == nil {
			continue
		}
		var v any
		switch o.kind {
		case opSolve:
			v = new(repro.ClusterSolveResponseJSON)
		case opDelta:
			v = new(repro.StreamUpdateJSON)
		case opBatch:
			v = new(repro.SolveBatchResponseJSON)
		default:
			continue
		}
		if json.Unmarshal(rs[k].raw, v) == nil {
			answers = append(answers, v)
		}
	}
	return meanMicros(len(answers), func(i int) { _, _ = json.Marshal(answers[i]) })
}

// decodeRequest decodes an op's body into its native form the way the
// server's handler does (for a solve, JSON plus SystemFromJSON: the work of
// RequestFromJSON).
func decodeRequest(o *op) error {
	switch o.kind {
	case opSolve:
		var req repro.SolveRequestJSON
		if err := json.Unmarshal(o.body, &req); err != nil {
			return err
		}
		_, err := repro.SystemFromJSON(req.System)
		return err
	case opBatch:
		var req repro.SolveBatchRequestJSON
		if err := json.Unmarshal(o.body, &req); err != nil {
			return err
		}
		for _, r := range req.Requests {
			if _, err := repro.SystemFromJSON(r.System); err != nil {
				return err
			}
		}
		return nil
	case opDelta:
		var d repro.StreamDeltaJSON
		return json.Unmarshal(o.body, &d)
	default:
		var h repro.HandoffRequestJSON
		return json.Unmarshal(o.body, &h)
	}
}

// meanMicros times f over indexes [0, n), repeating the pass until 20 ms
// have elapsed, and returns the mean per call in microseconds (0 for n = 0).
func meanMicros(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	began := time.Now()
	for time.Since(began) < 20*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(began).Microseconds()) / float64(calls)
}

// report prints one run's metrics, one per line with name, value, unit,
// direction and bound, then its checks.
func report(out io.Writer, w *workload, c *config, seed int64, res result) {
	mode := fmt.Sprintf("open loop, %.0f/s", w.rate*c.scale)
	if w.rate == 0 {
		mode = "closed loop"
	}
	kind := "end-to-end"
	defs := e2eMetrics
	if c.traced {
		kind, defs = "per-layer (traced)", layerMetrics
	}
	fmt.Fprintf(out, "== %s: %s, seed %d, %g s, %s; %s ==\n", w.name, kind, seed, c.seconds, mode, res.note)
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			if !c.traced {
				fmt.Fprintf(out, "  %-30s %14s\n", d.name, "n/a")
			}
			continue
		}
		dir := "higher is better"
		if d.lower {
			dir = "lower is better"
		}
		bound := ""
		switch {
		case c.traced:
		case d.bound == 0:
			bound = ", never gated"
		case d.abs:
			bound = fmt.Sprintf(", bound %g abs", d.bound)
		default:
			bound = fmt.Sprintf(", bound %g%%", d.bound*100)
		}
		raw := ""
		if r, ok := res.raw[d.name]; ok && !c.traced {
			raw = fmt.Sprintf("; raw %.6g", r)
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-6s (%s%s%s)\n", d.name, v, d.unit, dir, bound, raw)
	}
	if res.probeMs > 0 && !c.traced {
		fmt.Fprintf(out, "  host probe %.4f ms over the window against %.4g ms on the reference host: window costs scaled by %.4f\n",
			res.probeMs, probeRef, probeRef/res.probeMs)
	}
	if res.invalid != "" {
		fmt.Fprintf(out, "  INVALID run: %s\n", res.invalid)
	}
	fmt.Fprintf(out, "  checks: %d instances attempted, %d failed\n", res.attempted, res.failed)
	for _, err := range res.errs {
		fmt.Fprintf(out, "  CHECK FAILED: %v\n", err)
	}
}

// baseline is the pinned medians behind -compare.
type baseline struct {
	Seconds   float64                       `json:"seconds"`
	Seeds     string                        `json:"seeds"`
	Host      string                        `json:"host"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func writeBaseline(path string, c *config, medians map[string]map[string]float64) error {
	b := baseline{
		Seconds:   c.seconds,
		Seeds:     fmt.Sprintf("%d..%d", c.seed, c.seed+int64(c.runs)-1),
		Host:      fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Workloads: make(map[string]map[string]float64),
	}
	for w, med := range medians {
		b.Workloads[w] = make(map[string]float64)
		for _, d := range e2eMetrics {
			if v, ok := med[d.name]; ok {
				b.Workloads[w][d.name] = v
			}
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareBaseline prints the drift of every (workload, metric) pair against
// the pinned medians and reports whether all stayed within their bounds.
func compareBaseline(out io.Writer, path string, medians map[string]map[string]float64) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(out, "== drift against %s (pinned on %s, seeds %s, %g s) ==\n", path, b.Host, b.Seeds, b.Seconds)
	within := true
	names := make([]string, 0, len(medians))
	for w := range medians {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		pinned, ok := b.Workloads[w]
		if !ok {
			fmt.Fprintf(out, "  %-15s not pinned\n", w)
			continue
		}
		for _, d := range e2eMetrics {
			was, okWas := pinned[d.name]
			now, okNow := medians[w][d.name]
			if !okWas || !okNow {
				continue
			}
			worse := now - was // in the metric's worse direction
			if !d.lower {
				worse = -worse
			}
			drift, limit := fmt.Sprintf("%+.3g", now-was), fmt.Sprintf("%g", d.bound)
			if !d.abs {
				worse /= math.Abs(was)
				drift = fmt.Sprintf("%+.1f%%", 100*(now-was)/math.Abs(was))
				limit = fmt.Sprintf("%g%%", 100*d.bound)
			}
			verdict := "ok"
			switch {
			case d.bound == 0:
				verdict, limit = "not gated", "-"
			case worse > d.bound:
				verdict, within = "WORSE", false
			}
			fmt.Fprintf(out, "  %-15s %-18s pinned %-12.6g now %-12.6g drift %-8s bound %-6s %s\n", w, d.name, was, now, drift, limit, verdict)
		}
	}
	return within, nil
}
