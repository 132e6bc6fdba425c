package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// latencyWindow is how many recent solve latencies the quantile estimator
// retains. A power of two keeps the ring index cheap.
const latencyWindow = 1024

// maxTrackedBuckets bounds the per-topology-bucket counters (summed over
// shards); beyond it an arbitrary bucket's counters are evicted — the
// per-bucket view is an observability aid, not a source of truth.
const maxTrackedBuckets = 1024

// bucketStatShards spreads the per-bucket maps over independently locked
// shards so tracking stays off the request path's critical section (the
// other counters are atomics; one global mutex here would serialize the
// microsecond cache-hit path across workers).
const bucketStatShards = 16

// topBuckets is how many buckets (by request volume) a Snapshot carries.
const topBuckets = 8

// bucketEventKind tags one per-bucket counter update.
type bucketEventKind int

const (
	bucketHit bucketEventKind = iota
	bucketMiss
	bucketCold
)

// bucketCounters tracks one topology bucket's pipeline outcomes.
type bucketCounters struct {
	hits, misses, cold int64
}

// Stats aggregates the server's counters. Counters are updated atomically
// on the request path; quantiles are computed on demand from a sliding
// window of recent solve latencies.
type Stats struct {
	requests   atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	coldSolves atomic.Int64
	deduped    atomic.Int64
	rejected   atomic.Int64
	errors     atomic.Int64
	batchReqs  atomic.Int64
	batchItems atomic.Int64

	mu    sync.Mutex
	ring  [latencyWindow]time.Duration
	count int64 // total latencies ever recorded

	// Cache hits get their own window: their microsecond latencies would
	// drown in the solve ring, and the solve quantiles would lie about
	// solver speed if hits diluted them.
	hitMu    sync.Mutex
	hitRing  [latencyWindow]time.Duration
	hitCount int64

	// Queue wait (enqueue→dequeue) gets a third window: it is the load
	// signal the health layer scales on, and mixing it into solve time
	// would conflate "solver is slow" with "queue is deep".
	qwMu    sync.Mutex
	qwRing  [latencyWindow]time.Duration
	qwCount int64

	buckets [bucketStatShards]bucketShard

	// conv is the solver convergence observatory (see converge.go),
	// recorded once per completed solve.
	conv convStats
}

type bucketShard struct {
	mu sync.Mutex
	m  map[uint64]*bucketCounters
}

// bucketEvent updates one topology bucket's counters (sharded, bounded;
// see maxTrackedBuckets).
func (st *Stats) bucketEvent(topo uint64, kind bucketEventKind) {
	sh := &st.buckets[topo%bucketStatShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[uint64]*bucketCounters)
	}
	bc, ok := sh.m[topo]
	if !ok {
		if len(sh.m) >= maxTrackedBuckets/bucketStatShards {
			for k := range sh.m {
				delete(sh.m, k)
				break
			}
		}
		bc = &bucketCounters{}
		sh.m[topo] = bc
	}
	switch kind {
	case bucketHit:
		bc.hits++
	case bucketMiss:
		bc.misses++
	case bucketCold:
		bc.cold++
	}
}

func (st *Stats) recordLatency(d time.Duration) {
	st.mu.Lock()
	st.ring[st.count%latencyWindow] = d
	st.count++
	st.mu.Unlock()
}

func (st *Stats) recordHitLatency(d time.Duration) {
	st.hitMu.Lock()
	st.hitRing[st.hitCount%latencyWindow] = d
	st.hitCount++
	st.hitMu.Unlock()
}

func (st *Stats) recordQueueWait(d time.Duration) {
	st.qwMu.Lock()
	st.qwRing[st.qwCount%latencyWindow] = d
	st.qwCount++
	st.qwMu.Unlock()
}

// Snapshot is a consistent point-in-time copy of the counters, shaped for
// JSON encoding by the /v1/stats endpoint.
type Snapshot struct {
	// Requests counts every Solve call, whatever its outcome.
	Requests int64 `json:"requests"`
	// Hits are requests answered from the cache without solving.
	Hits int64 `json:"cache_hits"`
	// Misses are requests whose exact fingerprint was absent.
	Misses int64 `json:"cache_misses"`
	// WarmStarts is always zero: every cache miss solves cold. The field
	// stays for callers that read it.
	WarmStarts int64 `json:"warm_starts"`
	// ColdSolves are solves run on a cache miss.
	ColdSolves int64 `json:"cold_solves"`
	// Deduped are requests that piggybacked on an identical in-flight solve.
	Deduped int64 `json:"deduped"`
	// Rejected are requests refused because the queue was full.
	Rejected int64 `json:"rejected"`
	// Errors are requests that ended in a solver or validation error.
	Errors int64 `json:"errors"`
	// SolveP50 and SolveP99 are quantiles of recent solve latencies in
	// seconds (cache hits excluded; zero until the first solve completes).
	SolveP50 float64 `json:"solve_p50_seconds"`
	SolveP99 float64 `json:"solve_p99_seconds"`
	// CacheHitP50 and CacheHitP99 are quantiles of the cache-hit path's
	// own latency window (fingerprint + lookup; zero until the first hit).
	CacheHitP50 float64 `json:"cache_hit_p50_seconds"`
	CacheHitP99 float64 `json:"cache_hit_p99_seconds"`
	// QueueWaitP50 and QueueWaitP99 are quantiles of recent enqueue→dequeue
	// waits in seconds — the health layer's primary scaling signal.
	QueueWaitP50 float64 `json:"queue_wait_p50_seconds"`
	QueueWaitP99 float64 `json:"queue_wait_p99_seconds"`
	// QueueLen and BulkQueueLen are the instantaneous depths of the
	// interactive and bulk queues (filled by Server.Stats).
	QueueLen     int `json:"queue_len"`
	BulkQueueLen int `json:"bulk_queue_len"`
	// CacheEntries is the current solution-cache occupancy (filled by
	// Server.Stats; Stats itself does not know the cache).
	CacheEntries int `json:"cache_entries"`
	// BatchRequests counts SolveBatch calls; BatchItems counts the
	// instances they carried (each item also counts in Requests).
	BatchRequests int64 `json:"batch_requests"`
	BatchItems    int64 `json:"batch_items"`
	// TrackedBuckets is how many topology buckets have per-bucket hit-rate
	// counters (bounded; see Buckets for the busiest ones).
	TrackedBuckets int `json:"tracked_buckets"`
	// Buckets lists the busiest topology buckets by request volume with
	// their cache hit rates, busiest first.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
	// Convergence is the solver convergence observatory: outer-iteration
	// histograms per serving path.
	Convergence ConvergenceJSON `json:"convergence"`
}

// BucketSnapshot is one topology bucket's hit-rate view.
type BucketSnapshot struct {
	// Bucket is the topology-bucket hash in hex (matches the fingerprint's
	// Topo field).
	Bucket string `json:"bucket"`
	// Hits and Misses count exact-fingerprint cache outcomes of requests
	// landing in this bucket.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// ColdSolves counts the solves run for the bucket's misses.
	ColdSolves int64 `json:"cold_solves"`
	// HitRate is Hits/(Hits+Misses), 0 for an untouched bucket.
	HitRate float64 `json:"hit_rate"`
}

// Snapshot returns the current counter values and latency quantiles.
func (st *Stats) Snapshot() Snapshot {
	s := Snapshot{
		Requests:   st.requests.Load(),
		Hits:       st.hits.Load(),
		Misses:     st.misses.Load(),
		ColdSolves: st.coldSolves.Load(),
		Deduped:    st.deduped.Load(),
		Rejected:   st.rejected.Load(),
		Errors:     st.errors.Load(),

		BatchRequests: st.batchReqs.Load(),
		BatchItems:    st.batchItems.Load(),
	}
	if lat := st.latencies(); len(lat) > 0 {
		s.SolveP50, s.SolveP99 = LatencyQuantiles(lat)
	}
	if lat := st.hitLatencies(); len(lat) > 0 {
		s.CacheHitP50, s.CacheHitP99 = LatencyQuantiles(lat)
	}
	if lat := st.queueWaitLatencies(); len(lat) > 0 {
		s.QueueWaitP50, s.QueueWaitP99 = LatencyQuantiles(lat)
	}
	s.TrackedBuckets, s.Buckets = st.bucketSnapshots()
	s.Convergence = st.conv.snapshot()
	return s
}

// bucketSnapshots returns the tracked-bucket count and the busiest buckets
// (by hits+misses), busiest first.
func (st *Stats) bucketSnapshots() (int, []BucketSnapshot) {
	var out []BucketSnapshot
	for i := range st.buckets {
		sh := &st.buckets[i]
		sh.mu.Lock()
		for topo, bc := range sh.m {
			b := BucketSnapshot{
				Bucket:     fmt.Sprintf("%016x", topo),
				Hits:       bc.hits,
				Misses:     bc.misses,
				ColdSolves: bc.cold,
			}
			if total := bc.hits + bc.misses; total > 0 {
				b.HitRate = float64(bc.hits) / float64(total)
			}
			out = append(out, b)
		}
		sh.mu.Unlock()
	}
	if len(out) == 0 {
		return 0, nil
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Hits+out[i].Misses, out[j].Hits+out[j].Misses
		if ri != rj {
			return ri > rj
		}
		return out[i].Bucket < out[j].Bucket
	})
	n := len(out)
	if len(out) > topBuckets {
		out = out[:topBuckets]
	}
	return n, out
}

// latencies copies the recent-latency window (unsorted).
func (st *Stats) latencies() []time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.count
	if n > latencyWindow {
		n = latencyWindow
	}
	lat := make([]time.Duration, n)
	copy(lat, st.ring[:n])
	return lat
}

// hitLatencies copies the recent cache-hit latency window (unsorted).
func (st *Stats) hitLatencies() []time.Duration {
	st.hitMu.Lock()
	defer st.hitMu.Unlock()
	n := st.hitCount
	if n > latencyWindow {
		n = latencyWindow
	}
	lat := make([]time.Duration, n)
	copy(lat, st.hitRing[:n])
	return lat
}

// queueWaitLatencies copies the recent queue-wait window (unsorted).
func (st *Stats) queueWaitLatencies() []time.Duration {
	st.qwMu.Lock()
	defer st.qwMu.Unlock()
	n := st.qwCount
	if n > latencyWindow {
		n = latencyWindow
	}
	lat := make([]time.Duration, n)
	copy(lat, st.qwRing[:n])
	return lat
}

// LatencyQuantiles reports the p50 and p99 of a latency sample in seconds
// (zeros for an empty sample). The sample is sorted in place. Cluster
// routers use it to merge the windows of several servers into one
// cluster-wide quantile pair. The nearest-rank math lives in obs so the
// health layer's rolling windows agree with these numbers exactly.
func LatencyQuantiles(lat []time.Duration) (p50, p99 float64) {
	return obs.DurationQuantiles(lat)
}
