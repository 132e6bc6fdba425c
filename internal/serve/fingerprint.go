// Package serve turns the one-shot Algorithm 2 solver into a serving
// subsystem: a base station re-solving the allocation continuously as
// channel gains drift and devices join or leave sees the same instance
// again (retries, replays, cells whose channels have not moved), and this
// package amortizes solves across those repeats.
//
// It provides
//
//   - deterministic, exact instance fingerprinting (every parameter,
//     gains included, is hashed bit for bit, so a cache hit is the
//     request's own instance);
//   - a sharded, TTL- and size-bounded LRU cache of solver results;
//   - a worker-pool server with a bounded queue, per-request deadlines,
//     singleflight deduplication of identical in-flight instances, and
//     hit/miss/latency counters;
//   - an HTTP front end (POST /v1/solve, GET /v1/stats) used by
//     cmd/flserved.
package serve

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/fl"
)

// Fingerprint identifies an instance at two granularities. Exact keys equal
// means the instances are bit-identical (up to a 64-bit hash collision), so
// the cached result is the request's own answer. Topo keys equal means the
// instances share everything but the channel realization (same device
// population, boxes, shared constants, weights and options); the stats
// group per-bucket hit rates by it.
type Fingerprint struct {
	// Exact is the full instance hash, gains included.
	Exact uint64
	// Topo is the topology-bucket hash, gains excluded.
	Topo uint64
}

// hasher accumulates raw field bits into an FNV-1a hash. FNV is inlined
// (offset basis and prime as constants) because fingerprinting runs on the
// hot path of every request and hash/fnv allocates via its interface.
type hasher struct {
	h   uint64
	buf [8]byte
}

const fnvOffsetBasis = 14695981039346656037

func newHasher() *hasher { return &hasher{h: fnvOffsetBasis} }

func (hs *hasher) int64(v int64) {
	binary.LittleEndian.PutUint64(hs.buf[:], uint64(v))
	const prime = 1099511628211
	h := hs.h
	for _, b := range hs.buf {
		h ^= uint64(b)
		h *= prime
	}
	hs.h = h
}

// f64 hashes a float's IEEE-754 bits: two values share a key only if they
// are the same number (or both the same NaN payload).
func (hs *hasher) f64(v float64) { hs.int64(int64(math.Float64bits(v))) }

func (hs *hasher) str(s string) {
	hs.int64(int64(len(s)))
	const prime = 1099511628211
	h := hs.h
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	hs.h = h
}

// FingerprintInstance hashes (system, weights, options) at both
// granularities for the default solver (Algorithm 2). It is deterministic
// across processes: only field values enter the hash, in a fixed order.
func FingerprintInstance(s *fl.System, w fl.Weights, opts core.Options) Fingerprint {
	return FingerprintRequest(Request{System: s, Weights: w, Options: opts})
}

// FingerprintRequest hashes a full request, solver choice included: the
// same instance posted to different solvers must occupy different cache
// entries and different topology buckets, or a baseline's answer would
// masquerade as Algorithm 2's (and vice versa).
func FingerprintRequest(req Request) Fingerprint {
	s, w, opts := req.System, req.Weights, req.Options

	topo := newHasher()
	topo.str(string(req.Solver.normalize()))
	topo.int64(int64(s.N()))
	topo.f64(s.Bandwidth)
	topo.f64(s.N0)
	topo.f64(s.Kappa)
	topo.f64(s.LocalIters)
	topo.f64(s.GlobalRounds)
	for _, d := range s.Devices {
		topo.f64(d.Samples)
		topo.f64(d.CyclesPerSample)
		topo.f64(d.UploadBits)
		topo.f64(d.FMin)
		topo.f64(d.FMax)
		topo.f64(d.PMin)
		topo.f64(d.PMax)
	}
	topo.f64(w.W1)
	topo.f64(w.W2)
	topo.int64(int64(opts.Mode))
	topo.f64(opts.TotalDeadline)
	topo.int64(int64(opts.SP2Solver))
	topo.int64(boolBit(opts.UsePaperSP1Dual)<<2 | boolBit(opts.UsePaperSP2Dual)<<1 | boolBit(opts.JointWeighted))
	// Accuracy knobs change what "the" solution is, so they key the cache
	// too. Raw values are hashed: a request spelling a default explicitly
	// (e.g. MaxOuter=30 vs 0) misses spuriously, which costs one solve,
	// never a wrong answer.
	topo.int64(int64(opts.MaxOuter))
	topo.int64(int64(opts.MaxNewton))
	topo.f64(opts.OuterTol)
	topo.f64(opts.PhiTol)
	topo.f64(opts.Xi)
	topo.f64(opts.Epsilon)
	return FingerprintGains(topo.h, s)
}

// FingerprintGains rebuilds a fingerprint from a previously computed
// topology hash and the system's current channel gains. It is the
// incremental half of FingerprintRequest: the exact hash is, by
// construction, the topology hash extended with the gains' bits, so a
// caller that knows only the gains changed (a streaming delta session)
// skips re-hashing the whole device population and pays O(N) gain words
// instead. The topo argument must come from a FingerprintRequest (or
// earlier FingerprintGains) of the same request; a delta that touches
// anything besides gains invalidates it.
func FingerprintGains(topo uint64, s *fl.System) Fingerprint {
	exact := newHasher()
	exact.int64(int64(topo))
	for i := range s.Devices {
		exact.f64(s.Devices[i].Gain)
	}
	return Fingerprint{Exact: exact.h, Topo: topo}
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
