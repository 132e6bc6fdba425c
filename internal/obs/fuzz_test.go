package obs

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzParseTraceQuery feeds raw query strings, decoded the way
// r.URL.Query() decodes them, to the parser that /debug/traces, the
// aggregator, the flight recorder and the incident handler share. Every
// input must either fail with a *QueryError naming one of the three
// parameters (written as a 400) or yield an in-bounds query; nothing may
// panic.
func FuzzParseTraceQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"limit=10",
		"limit=0",
		"limit=1024",
		"limit=1025",
		"limit=-1",
		"limit=9999999999999999999999",
		"limit=%zz",
		"min_duration=250ms",
		"min_duration=-1s",
		"min_duration=fast",
		"min_duration=9223372036854775807ns",
		"trace_id=abc-123_XYZ",
		"trace_id=bad%20id",
		"trace_id=" + string(make([]byte, 65)),
		"limit=5&min_duration=1ms&trace_id=t1",
		"limit=5&limit=0",
		";;&&==",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // r.URL.Query() drops the error too
		tq, err := ParseTraceQuery(q)
		if err != nil {
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("%q: untyped error %T %v", raw, err, err)
			}
			switch qe.Param {
			case "limit", "min_duration", "trace_id":
			default:
				t.Fatalf("%q: error names unknown param %q", raw, qe.Param)
			}
			rec := httptest.NewRecorder()
			if !WriteQueryError(rec, err) || rec.Code != http.StatusBadRequest {
				t.Fatalf("%q: query error not written as 400 (code %d)", raw, rec.Code)
			}
			return
		}
		if tq.Limit < 0 || tq.Limit > MaxTraceQueryLimit || (tq.Limit == 0) != (q.Get("limit") == "") {
			t.Fatalf("%q: limit %d out of bounds", raw, tq.Limit)
		}
		if tq.MinDuration < 0 {
			t.Fatalf("%q: negative min_duration %v", raw, tq.MinDuration)
		}
		if tq.TraceID != "" && !validWireID(tq.TraceID) {
			t.Fatalf("%q: accepted malformed trace id %q", raw, tq.TraceID)
		}
		if tq.TraceID != q.Get("trace_id") {
			t.Fatalf("%q: trace id %q, query says %q", raw, tq.TraceID, q.Get("trace_id"))
		}
	})
}
