package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/health"
	"repro/internal/obs/forensics"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/stream"
)

// endpoint is one request a command's doc comment promises an answer to.
type endpoint struct {
	method, path, body string
}

// testConfig boots on loopback ports the kernel picks, with every
// optional layer on: tracing, the debug listener, the profile trigger and
// snapshots.
func testConfig(t *testing.T, origin string) Config {
	dir := t.TempDir()
	return Config{
		Origin:           origin,
		Addr:             "127.0.0.1:0",
		DebugAddr:        "127.0.0.1:0",
		TraceSample:      1,
		Profile:          forensics.ProfileConfig{Dir: filepath.Join(dir, "profiles")},
		SnapshotDir:      dir,
		SnapshotInterval: -1,
	}
}

// solveBody is a three-device default-scenario solve request.
func solveBody(t *testing.T, device string) string {
	sc := experiments.Default()
	sc.N = 3
	s, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	req := serve.SolveRequestJSON{System: serve.SystemToJSON(s), DeviceID: device}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// call sends one request and fails the test unless it answers 2xx (or
// 503 from /v1/health, whose readiness answer a breach flips). The
// response head is enough for the dashboard, an endless stream.
func call(t *testing.T, base string, e endpoint) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, e.method, base+e.path, strings.NewReader(e.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", e.method, e.path, err)
	}
	defer resp.Body.Close()
	var body []byte
	if e.path != "/debug/dashboard" {
		body, _ = io.ReadAll(resp.Body)
	}
	ok := resp.StatusCode/100 == 2 || e.path == "/v1/health" && resp.StatusCode == http.StatusServiceUnavailable
	if !ok {
		t.Errorf("%s %s: %d %s", e.method, e.path, resp.StatusCode, body)
	}
	return body
}

// openStream opens a delta session and returns its ID.
func openStream(t *testing.T, base, device string) string {
	t.Helper()
	var open stream.OpenResponseJSON
	if err := json.Unmarshal(call(t, base, endpoint{"POST", "/v1/stream", solveBody(t, device)}), &open); err != nil || open.SessionID == "" {
		t.Fatalf("open stream: %v %+v", err, open)
	}
	return open.SessionID
}

// checkShared checks the endpoints both shapes serve: the stream API, the
// health, stats, metrics, version and forensics endpoints, and the debug
// listener's.
func checkShared(t *testing.T, n *Node) {
	base := "http://" + n.Addr()
	id := openStream(t, base, "stream-dev")
	for _, e := range []endpoint{
		{"POST", "/v1/solve-batch", `{"requests":[` + solveBody(t, "batch-dev") + `]}`},
		{"POST", "/v1/stream/" + id + "/deltas", `{"seq":1,"gains":{"0":2e-10}}` + "\n"},
		{"DELETE", "/v1/stream/" + id, ""},
		{"GET", "/v1/health", ""},
		{"GET", "/debug/alerts", ""},
		{"GET", "/v1/version", ""},
		{"GET", "/v1/stats", ""},
		{"GET", "/metrics", ""},
		{"GET", "/debug/traces", ""},
		{"GET", "/debug/flight", ""},
		{"GET", "/debug/incident", ""},
	} {
		call(t, base, e)
	}
	debug := "http://" + n.DebugAddr()
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/traces", "/debug/flight", "/debug/incident", "/debug/dashboard"} {
		call(t, debug, endpoint{"GET", path, ""})
	}
}

// shutdown stops the node and checks that the final snapshot was written.
func shutdown(t *testing.T, n *Node, file string) {
	n.Shutdown()
	n.Close()
	if _, err := os.Stat(filepath.Join(n.cfg.SnapshotDir, file)); err != nil {
		t.Errorf("final snapshot: %v", err)
	}
}

func TestServerShapeEndpoints(t *testing.T) {
	n := New(testConfig(t, "flserved"))
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	mgr := stream.NewManager(stream.NewServeBackend(srv), stream.Config{Trace: n.Collector()})
	defer mgr.Close()
	err := n.Start(Backend{
		Stream:       mgr,
		Health:       health.Config{Source: health.ServerSource(srv), Tick: time.Hour},
		Stats:        func() any { return srv.Stats() },
		SnapshotFile: "flserved.snap",
		Capture:      replica.CaptureServer(srv, mgr),
		Restore:      func(s replica.Snapshot) replica.RestoreReport { return replica.RestoreServer(srv, mgr, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	call(t, "http://"+n.Addr(), endpoint{"POST", "/v1/solve", solveBody(t, "")})
	checkShared(t, n)
	shutdown(t, n, "flserved.snap")
}

func TestClusterShapeEndpoints(t *testing.T) {
	n := New(testConfig(t, "flcluster"))
	cl := cluster.New(cluster.Config{Cells: 3, Cell: serve.Config{Workers: 1}})
	defer cl.Close()
	mgr := stream.NewManager(stream.NewClusterBackend(cl), stream.Config{Trace: n.Collector()})
	defer mgr.Close()
	plane := ctrl.New(cl, mgr)
	err := n.Start(Backend{
		Stream: mgr,
		Plane:  plane,
		Health: health.Config{
			Source:   health.RouterSource(cl),
			Tick:     time.Hour,
			Advisor:  health.AdvisorConfig{MinCells: 1, MaxCells: 4},
			Actuator: ctrl.Actuator{Plane: plane},
		},
		Stats:        func() any { return cl.Stats() },
		SnapshotFile: "flcluster.snap",
		Capture:      replica.CaptureCluster(cl, mgr),
		Restore:      func(s replica.Snapshot) replica.RestoreReport { return replica.RestoreCluster(cl, mgr, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + n.Addr()
	handoff, _ := json.Marshal(cluster.HandoffRequestJSON{DeviceID: "pinned", FromCell: 0, ToCell: 2})
	for _, e := range []endpoint{
		{"POST", "/v1/cells/0/solve", solveBody(t, "pinned")},
		{"POST", "/v1/solve", solveBody(t, "routed")},
		{"POST", "/v1/handoff", string(handoff)},
		{"GET", "/v1/rebalance/plan", ""},
		{"POST", "/v1/rebalance", ""},
		{"GET", "/v1/autoscale/plan", ""},
	} {
		call(t, base, e)
	}
	var added ctrl.AddCellReport
	if err := json.Unmarshal(call(t, base, endpoint{"POST", "/v1/cells", ""}), &added); err != nil {
		t.Fatal(err)
	}
	call(t, base, endpoint{"DELETE", fmt.Sprintf("/v1/cells/%d", added.Cell), ""})
	call(t, base, endpoint{"POST", "/v1/cells/1/crash", ""})
	checkShared(t, n)

	var stats map[string]json.RawMessage
	if err := json.Unmarshal(call(t, base, endpoint{"GET", "/v1/stats", ""}), &stats); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"ctrl", "health", "snapshot", "telemetry", "forensics"} {
		if !bytes.Contains(stats[section], []byte("{")) {
			t.Errorf("/v1/stats has no %q section", section)
		}
	}
	shutdown(t, n, "flcluster.snap")
}

// TestFlightRecorderFollowsTraceSample pins that the flight recorder
// exists only with tracing on: at -trace-sample 0 no recorder is built and
// /debug/flight (like /debug/traces) answers 404 on both listeners; at
// the default 16 both answer 200.
func TestFlightRecorderFollowsTraceSample(t *testing.T) {
	for _, tc := range []struct{ sample, status int }{{0, http.StatusNotFound}, {16, http.StatusOK}} {
		n := New(Config{Origin: "flserved", Addr: "127.0.0.1:0", DebugAddr: "127.0.0.1:0", TraceSample: tc.sample})
		srv := serve.New(serve.Config{Workers: 1})
		mgr := stream.NewManager(stream.NewServeBackend(srv), stream.Config{Trace: n.Collector()})
		err := n.Start(Backend{
			Stream: mgr,
			Health: health.Config{Source: health.ServerSource(srv), Tick: time.Hour},
			Stats:  func() any { return srv.Stats() },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, url := range []string{"http://" + n.Addr(), "http://" + n.DebugAddr()} {
			for _, path := range []string{"/debug/flight", "/debug/traces"} {
				resp, err := http.Get(url + path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Errorf("trace sample %d: GET %s%s answered %d, want %d", tc.sample, url, path, resp.StatusCode, tc.status)
				}
			}
		}
		n.Shutdown()
		n.Close()
		mgr.Close()
		srv.Close()
	}
}
