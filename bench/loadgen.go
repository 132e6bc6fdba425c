package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro"
)

// opKind selects how an op's answer is checked.
type opKind int

const (
	opSolve   opKind = iota // POST /v1/solve
	opHandoff               // POST /v1/handoff
	opDelta                 // POST /v1/stream/{id}/deltas, one NDJSON line
	opBatch                 // POST /v1/solve-batch
)

// instance is one allocation problem as the benchmark generated it.
type instance struct {
	sys      *repro.System
	w        repro.Weights
	deadline float64 // total completion-time limit in s; 0 = weighted mode
}

// op is one pre-encoded request of a sender's schedule.
type op struct {
	due         time.Duration // scheduled send, from the window start (open loop)
	kind        opKind
	path        string
	contentType string
	body        []byte
	// inst holds the instances the op asks for (a batch carries several):
	// answers are validated against them, and sampled answers are scored
	// on them. A delta's entry may be the session's base instance, whose
	// boxes are the current instance's, unless the op is sampled.
	inst    []*instance
	seq     uint64                    // opDelta: the delta's sequence number
	handoff *repro.HandoffRequestJSON // opHandoff: the request
	sampled bool                      // keep the answer for the objective check
}

// instances is how many instances the op counts for in throughput, cpu
// and failure shares.
func (o *op) instances() int {
	if len(o.inst) == 0 {
		return 1
	}
	return len(o.inst)
}

// answer is the served allocations of one op, aligned with op.inst.
type answer []repro.Allocation

// rec is the outcome of one op.
type rec struct {
	sent, done time.Duration // from the window start
	lat, lag   time.Duration // done and sent, from the scheduled send
	// genLag is how late the generator itself sent: from when the op was
	// both due and its connection free. Lag minus genLag is the wait for
	// the sender's previous answer, which the stack, not the generator,
	// imposed.
	genLag time.Duration
	err    error
	got    answer // sampled ops only
	raw    []byte // sampled ops only: the response body
}

// schedule returns n = round(rate*seconds) Poisson arrival offsets in
// [0, seconds): exponential gaps rescaled to span the window, which is the
// Poisson process conditioned on its count. A fixed count keeps the offered
// work identical from seed to seed; only the arrival pattern varies.
func schedule(rng *rand.Rand, rate, seconds float64) []time.Duration {
	n := int(math.Round(rate * seconds))
	if n <= 0 {
		return nil
	}
	cum := make([]float64, n+1)
	sum := 0.0
	for i := range cum {
		sum += rng.ExpFloat64()
		cum[i] = sum
	}
	window := seconds * float64(time.Second)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(cum[i] / cum[n] * window)
	}
	return out
}

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// drive runs one sender goroutine per plan, each with its own connection,
// and returns each op's record. Open loop (closed ==
// 0): every op is sent at its scheduled offset, or as soon as its
// connection frees up when an earlier answer is late, and its latency is
// timed from the scheduled send, so a stall is charged to every request
// queued behind it. Closed loop (closed > 0): each sender issues its ops
// back to back until closed has elapsed, and an op's latency is its round
// trip. firstID numbers each plan's first op for the traced run's
// middleware (nil when untraced).
func drive(baseURL string, plans [][]op, closed time.Duration, firstID []int) [][]rec {
	recs := make([][]rec, len(plans))
	start := time.Now()
	var wg sync.WaitGroup
	for s := range plans {
		recs[s] = make([]rec, 0, len(plans[s]))
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			free := start // when the connection's previous answer arrived
			for i := range plans[s] {
				o := &plans[s][i]
				due := start.Add(o.due)
				if closed > 0 {
					due = time.Now()
					if due.Sub(start) >= closed {
						break
					}
				} else {
					sleepUntil(due)
				}
				id := -1
				if firstID != nil {
					id = firstID[s] + i
				}
				r := send(client, baseURL, o, id, &buf, start, due)
				if due.Before(free) {
					due = free
				}
				r.genLag = start.Add(r.sent).Sub(due)
				free = start.Add(r.done)
				recs[s] = append(recs[s], r)
			}
		}(s)
	}
	wg.Wait()
	return recs
}

// sleepUntil blocks the calling goroutine until t. It sleeps in nanosleep
// rather than time.Sleep: the Go runtime parks timers in a millisecond-
// granular poll, which on an idle process oversleeps by 0.6 ms at the
// median and would swamp sub-millisecond round trips; nanosleep wakes
// within the kernel's 50 us timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// send issues one op and checks its answer.
func send(client *http.Client, baseURL string, o *op, id int, buf *bytes.Buffer, start, due time.Time) rec {
	var r rec
	req, err := http.NewRequest(http.MethodPost, baseURL+o.path, bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", o.contentType)
	if id >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(id))
	}
	sent := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	r.sent, r.done = sent.Sub(start), done.Sub(start)
	r.lat, r.lag = done.Sub(due), sent.Sub(due)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", o.path, err)
		return r
	}
	r.got, r.err = check(o, resp.StatusCode, buf.Bytes())
	if o.sampled {
		r.raw = append([]byte(nil), buf.Bytes()...)
	} else {
		r.got = nil
	}
	return r
}
