package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/serve"
)

// lineWriter is a ResponseWriter that hands every written NDJSON line to
// onLine as it is written. The deltas handler writes a delta's update line
// before it decodes the next delta, so onLine observes the session exactly
// between two lines.
type lineWriter struct {
	header http.Header
	code   int
	onLine func([]byte)
}

func (w *lineWriter) Header() http.Header  { return w.header }
func (w *lineWriter) WriteHeader(code int) { w.code = code }
func (w *lineWriter) Flush()               {}
func (w *lineWriter) Write(b []byte) (int, error) {
	w.onLine(b)
	return len(b), nil
}

// FuzzDeltaLines drives raw NDJSON through an open session's deltas
// handler. Nothing may panic. A rejected line carries a typed error (stale
// seq, bad delta, or the decode error that ends the stream) and leaves the
// session's seq and gains exactly as they were; an accepted line moves the
// seq to its own and applies its gains.
func FuzzDeltaLines(f *testing.F) {
	for _, seed := range []string{
		`{"seq":1,"gains":{"0":2e-13,"2":9e-14}}` + "\n" + `{"seq":2,"gains":{"1":3e-13}}` + "\n",
		`{"seq":1,"gains":{"0":2e-13}}` + "\n" + `{"seq":1,"gains":{"0":3e-13}}` + "\n",
		`{"seq":5,"gains":{"3":1e-13}}{"seq":4,"gains":{"3":2e-13}}`,
		`{"seq":1,"gains":{"9":1e-13}}`,
		`{"seq":1,"gains":{"0":-1e-13,"1":2e-13}}`,
		`{"seq":1,"gains":{"0":0}}`,
		`{"seq":1,"weights":{"w1":0.3,"w2":0.7}}`,
		`{"seq":1,"weights":{"w1":0.3,"w2":0.3},"gains":{"0":2e-13}}`,
		`{"seq":1,"total_deadline_s":60}`,
		`{"seq":1}`,
		`{"seq":0,"gains":{"0":2e-13}}`,
		`{"seq":1,"gains":{"x":1}}`,
		`{"seq":-1}`,
		`{"seq":1,"gains":{"0":2e-13}}` + "\n" + `{"seq":`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	srv := serve.New(serve.Config{
		Workers: 1,
		// Answers with the max-resource allocation: the target exercises
		// decoding, validation and session state, not the solver.
		Solver: func(s *fl.System, _ fl.Weights, _ core.Options) (core.Result, error) {
			return core.Result{Allocation: s.MaxResourceAllocation(), Converged: true}, nil
		},
	})
	m := NewManager(NewServeBackend(srv), Config{})
	f.Cleanup(func() {
		m.Close()
		srv.Close()
	})
	h := Handler(m)
	base := testSystem(f, 4, 1)

	f.Fuzz(func(t *testing.T, data []byte) {
		sess, _, err := m.Open(context.Background(), "", serve.Request{System: base, Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		defer m.CloseSession(sess.ID())

		// The model: the same bytes through the same decoder, with the
		// session state every line must leave behind.
		model := json.NewDecoder(bytes.NewReader(data))
		var seq uint64
		gains := make([]float64, base.N())
		for i, d := range base.Devices {
			gains[i] = d.Gain
		}
		ended := false
		w := &lineWriter{header: http.Header{}, onLine: func(line []byte) {
			if ended {
				t.Fatalf("update line after the stream ended: %s", line)
			}
			var u UpdateJSON
			if err := json.Unmarshal(line, &u); err != nil {
				t.Fatalf("unparseable update line %q: %v", line, err)
			}
			var dj DeltaJSON
			derr := model.Decode(&dj)
			switch {
			case strings.HasPrefix(u.Error, "decoding delta: "):
				if derr == nil || errors.Is(derr, io.EOF) {
					t.Fatalf("handler failed to decode a line the model decodes: %s", u.Error)
				}
				ended = true
			case derr != nil:
				t.Fatalf("update line %s for a line the model cannot decode: %v", line, derr)
			case u.Seq != dj.Seq:
				t.Fatalf("update seq %d answers delta seq %d", u.Seq, dj.Seq)
			case u.OK:
				if dj.Seq <= seq {
					t.Fatalf("accepted seq %d after %d", dj.Seq, seq)
				}
				seq = dj.Seq
				for i, g := range dj.Gains {
					gains[i] = g
				}
			case !strings.Contains(u.Error, ErrStaleSeq.Error()) && !strings.Contains(u.Error, ErrBadDelta.Error()):
				t.Fatalf("untyped rejection %q", u.Error)
			}
			if got := sess.Seq(); got != seq {
				t.Fatalf("session seq %d after %s, want %d", got, line, seq)
			}
			for i, d := range sess.SystemSnapshot().Devices {
				if d.Gain != gains[i] {
					t.Fatalf("device %d gain %g after %s, want %g", i, d.Gain, line, gains[i])
				}
			}
		}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/stream/"+sess.ID()+"/deltas", bytes.NewReader(data)))
		if w.code != http.StatusOK {
			t.Fatalf("deltas handler answered %d", w.code)
		}
		if !ended {
			var dj DeltaJSON
			if err := model.Decode(&dj); !errors.Is(err, io.EOF) {
				t.Fatalf("handler stopped before the model: next decode %v", err)
			}
		}
	})
}
