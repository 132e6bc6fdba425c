package repro_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/node"
)

// hygieneStack boots the flcluster serving stack on a loopback listener:
// the cluster router, stream manager and control plane, with everything
// internal/node wires around them (collector, exporter and aggregator,
// flight recorder, health evaluator, runtime and forensics metrics), so
// the /metrics exposition under test is the one operators scrape. It
// returns the base URL.
func hygieneStack(t *testing.T) string {
	t.Helper()
	n := node.New(node.Config{Origin: "hygiene", Addr: "127.0.0.1:0", TraceSample: 1, TraceSlow: -1})
	cl := repro.NewCluster(repro.ClusterConfig{Cells: 2, Cell: repro.ServeConfig{Workers: 1}})
	mgr := repro.NewStreamManager(repro.NewStreamClusterBackend(cl), repro.StreamConfig{Trace: n.Collector()})
	err := n.Start(node.Backend{
		Stream: mgr,
		Plane:  repro.NewControlPlane(cl, mgr),
		Health: repro.HealthConfig{Source: repro.HealthRouterSource(cl), Tick: time.Hour},
		Stats:  func() any { return cl.Stats() },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Shutdown()
		mgr.Close()
		cl.Close()
		n.Close()
	})
	return "http://" + n.Addr()
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestMetricsHygiene scrapes the composed stack's /metrics after real
// traffic and checks exposition discipline: snake_case names, exactly one
// HELP and one TYPE per family, and no duplicate name+labels series — the
// invariant that keeps the exporter/aggregator/health/serve emitters from
// colliding when one process runs all of them.
func TestMetricsHygiene(t *testing.T) {
	base := hygieneStack(t)

	// Drive one routed solve so phase histograms, exemplars and the
	// convergence observatory all have content to emit.
	sc := repro.DefaultScenario()
	sc.N = 6
	s, err := sc.Build(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	req := repro.SolveRequestJSON{System: repro.SystemToJSON(s), DeviceID: "hyg-0"}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}

	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}

	help := map[string]int{}
	typ := map[string]int{}
	series := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			name := fields[2]
			if !metricNameRE.MatchString(name) {
				t.Errorf("metric family %q is not snake_case", name)
			}
			if fields[1] == "HELP" {
				help[name]++
			} else {
				typ[name]++
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		// Sample line: name{labels} value [# {exemplar} value]. Strip the
		// OpenMetrics exemplar before keying the series.
		sample := line
		if i := strings.Index(sample, " # {"); i >= 0 {
			sample = sample[:i]
		}
		var key, name string
		if i := strings.Index(sample, "{"); i >= 0 {
			j := strings.LastIndex(sample, "}")
			if j < i {
				t.Fatalf("malformed sample line %q", line)
			}
			name, key = sample[:i], sample[:j+1]
		} else {
			fields := strings.Fields(sample)
			name, key = fields[0], fields[0]
		}
		if !metricNameRE.MatchString(name) {
			t.Errorf("series name %q is not snake_case", name)
		}
		series[key]++
		// Every sample must belong to a family announced by TYPE.
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && typ[trimmed] > 0 {
				base = trimmed
				break
			}
		}
		if typ[base] == 0 {
			t.Errorf("series %q has no TYPE line", name)
		}
	}
	if len(series) == 0 {
		t.Fatal("no series in exposition")
	}
	for name, n := range help {
		if n != 1 {
			t.Errorf("HELP for %q appears %d times", name, n)
		}
		if typ[name] != 1 {
			t.Errorf("TYPE for %q appears %d times", name, typ[name])
		}
	}
	for name, n := range typ {
		if help[name] != 1 {
			t.Errorf("TYPE %q lacks a single HELP (%d)", name, help[name])
		}
		_ = n
	}
	for key, n := range series {
		if n != 1 {
			t.Errorf("duplicate series %q emitted %d times", key, n)
		}
	}

	// The telemetry plane's own families must be present: the exporter and
	// aggregator register disjoint names even when one process runs both.
	for _, want := range []string{
		"obs_spans_exported_total", "obs_spans_dropped_total",
		"obs_span_batches_received_total", "obs_assembled_traces",
	} {
		if typ[want] != 1 {
			t.Errorf("missing telemetry family %q in exposition", want)
		}
	}
}
