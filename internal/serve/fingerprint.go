// Package serve turns the one-shot Algorithm 2 solver into a serving
// subsystem: a base station re-solving the allocation continuously as
// channel gains drift and devices join or leave sees long runs of
// near-identical instances, and this package amortizes solves across them.
//
// It provides
//
//   - deterministic, quantization-bucketed instance fingerprinting
//     (nearby channel realizations collide on purpose in weighted mode;
//     deadline mode keys on the exact gains);
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

// Quantization controls how instance parameters are bucketed before
// hashing. Coarser buckets make more "nearby" instances collide (higher hit
// rate, staler answers); finer buckets approach exact matching.
type Quantization struct {
	// GainResolutionDB is the channel-gain bucket width in dB for the exact
	// fingerprint. Gains are bucketed in log-space so a multiplicative drift
	// smaller than half a bucket still hits the cache. Default 0.25 dB.
	// Weighted mode only: deadline mode keys on the exact gains.
	GainResolutionDB float64
	// ParamResolution is the relative bucket width for every other positive
	// parameter (powers, frequencies, sizes, weights, deadlines), expressed
	// in decades of log10. Default 1e-6 (effectively exact matching).
	ParamResolution float64
}

func (q Quantization) withDefaults() Quantization {
	if q.GainResolutionDB <= 0 {
		q.GainResolutionDB = 0.25
	}
	if q.ParamResolution <= 0 {
		q.ParamResolution = 1e-6
	}
	return q
}

// Fingerprint identifies an instance at two granularities. Exact keys equal
// means the instances are interchangeable up to quantization noise and the
// cached result can be returned directly. Topo keys equal means the
// instances share everything but the channel realization (same device
// population, boxes, shared constants, weights and options); the stats
// group per-bucket hit rates by it.
type Fingerprint struct {
	// Exact is the full instance hash, gains included (bucketed in
	// weighted mode, bit for bit in deadline mode).
	Exact uint64
	// Topo is the topology-bucket hash, gains excluded.
	Topo uint64
}

// hasher accumulates quantized values into an FNV-1a hash. FNV is inlined
// (offset basis and prime as constants) because fingerprinting runs twice
// on the hot path of every request and hash/fnv allocates via its
// interface.
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

// qlog buckets a value by rounding its log10 to a grid of width res
// decades. Zero and negative values get dedicated buckets (the model never
// produces them for the hashed fields, but the hash must stay total).
func (hs *hasher) qlog(v, res float64) {
	switch {
	case v == 0:
		hs.int64(math.MinInt64)
	case v < 0:
		hs.int64(math.MinInt64 + 1)
		hs.qlog(-v, res)
	default:
		hs.int64(int64(math.Round(math.Log10(v) / res)))
	}
}

// FingerprintInstance hashes (system, weights, options) at both
// granularities for the default solver (Algorithm 2). It is deterministic
// across processes: only field values enter the hash, in a fixed order.
func FingerprintInstance(s *fl.System, w fl.Weights, opts core.Options, q Quantization) Fingerprint {
	return FingerprintRequest(Request{System: s, Weights: w, Options: opts}, q)
}

// FingerprintRequest hashes a full request, solver choice included: the
// same instance posted to different solvers must occupy different cache
// entries and different topology buckets, or a baseline's answer would
// masquerade as Algorithm 2's (and vice versa).
func FingerprintRequest(req Request, q Quantization) Fingerprint {
	s, w, opts := req.System, req.Weights, req.Options
	q = q.withDefaults()
	gainRes := q.GainResolutionDB / 10 // dB -> decades
	pr := q.ParamResolution

	topo := newHasher()
	topo.str(string(req.Solver.normalize()))
	topo.int64(int64(s.N()))
	topo.qlog(s.Bandwidth, pr)
	topo.qlog(s.N0, pr)
	topo.qlog(s.Kappa, pr)
	topo.qlog(s.LocalIters, pr)
	topo.qlog(s.GlobalRounds, pr)
	for _, d := range s.Devices {
		topo.qlog(d.Samples, pr)
		topo.qlog(d.CyclesPerSample, pr)
		topo.qlog(d.UploadBits, pr)
		topo.qlog(d.FMin, pr)
		topo.qlog(d.FMax, pr)
		topo.qlog(d.PMin, pr)
		topo.qlog(d.PMax, pr)
	}
	topo.qlog(w.W1, pr)
	topo.qlog(w.W2, pr)
	topo.int64(int64(opts.Mode))
	topo.qlog(opts.TotalDeadline, pr)
	topo.int64(int64(opts.SP2Solver))
	topo.int64(boolBit(opts.UsePaperSP1Dual)<<2 | boolBit(opts.UsePaperSP2Dual)<<1 | boolBit(opts.JointWeighted))
	// Accuracy knobs change what "the" solution is, so they key the cache
	// too. Raw values are hashed: a request spelling a default explicitly
	// (e.g. MaxOuter=30 vs 0) misses spuriously, which costs one solve,
	// never a wrong answer.
	topo.int64(int64(opts.MaxOuter))
	topo.int64(int64(opts.MaxNewton))
	topo.qlog(opts.OuterTol, pr)
	topo.qlog(opts.PhiTol, pr)
	topo.qlog(opts.Xi, pr)
	topo.qlog(opts.Epsilon, pr)
	// An explicit start changes the alternating solver's trajectory, so
	// requests differing only in Start must not share a cache entry. The
	// slices are hashed independently, each length-prefixed: the hash must
	// stay total even for malformed allocations (mismatched lengths) that
	// the solver will later reject.
	if opts.Start != nil {
		topo.int64(1)
		for _, vs := range [][]float64{opts.Start.Power, opts.Start.Bandwidth, opts.Start.Freq} {
			topo.int64(int64(len(vs)))
			for _, v := range vs {
				topo.qlog(v, pr)
			}
		}
	} else {
		topo.int64(0)
	}

	exact := newHasher()
	exact.int64(int64(topo.h))
	exact.gains(s, opts.Mode, gainRes)
	return Fingerprint{Exact: exact.h, Topo: topo.h}
}

// FingerprintGains rebuilds a fingerprint from a previously computed
// topology hash and the system's current channel gains. It is the
// incremental half of FingerprintRequest: the exact hash is, by
// construction, the topology hash extended with the bucketed gains, so a
// caller that knows only the gains changed (a streaming delta session)
// skips re-hashing the whole device population and pays O(N) gain buckets
// instead. The topo argument must come from a FingerprintRequest (or
// earlier FingerprintGains) of the same request under the same
// quantization; a delta that touches anything besides gains invalidates it.
// The mode must be the request's Options.Mode.
func FingerprintGains(topo uint64, s *fl.System, mode core.Mode, q Quantization) Fingerprint {
	q = q.withDefaults()
	exact := newHasher()
	exact.int64(int64(topo))
	exact.gains(s, mode, q.GainResolutionDB/10) // dB -> decades
	return Fingerprint{Exact: exact.h, Topo: topo}
}

// gains hashes the channel gains into the exact key: bucketed at res
// decades in weighted mode, bit for bit in deadline mode. A deadline
// answer is tight (every device finishes on the deadline), so one solved
// for a neighbour in the same bucket overruns the request's deadline
// wherever the request's gain sits lower. A weighted answer stays feasible
// for every gain in the bucket: its boxes and band sum do not depend on
// the gains.
func (hs *hasher) gains(s *fl.System, mode core.Mode, res float64) {
	for i := range s.Devices {
		if g := s.Devices[i].Gain; mode == core.ModeDeadline {
			hs.int64(int64(math.Float64bits(g)))
		} else {
			hs.qlog(g, res)
		}
	}
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
