package serve

import (
	"repro/internal/core"
	"repro/internal/fl"
)

// This file is the bulk half of the cross-cell migration API: where
// Extract/Inject move one fingerprint's state with one lock round trip
// each, ExtractBatch/InjectBatch move a whole batch with one lock
// acquisition per cache shard and one for the warm index. Mass-mobility
// migrations (internal/cluster.MassHandoff) ride these so a thousand
// devices leaving a cell cost thousands of map operations, not thousands
// of lock convoys.

// ExtractBatch removes the solution-cache entries for every fingerprint
// and copies each one's topology-bucket warm state, in one batched pass;
// out[i] corresponds to fps[i]. Semantics per entry match Extract: the
// cache entry is removed (the server answers that exact fingerprint cold
// again), the warm entry is copied, not removed (topology buckets are
// shared by every device that collides there).
func (s *Server) ExtractBatch(fps []Fingerprint) []Migration {
	out := make([]Migration, len(fps))
	keys := make([]uint64, len(fps))
	for i := range fps {
		keys[i] = fps[i].Exact
	}
	for i, res := range s.cache.TakeBatch(keys) {
		out[i].Result = res
	}
	s.warm.mu.Lock()
	for i := range fps {
		if a, ok := s.warm.m[fps[i].Topo]; ok {
			// Entries are immutable (put stores private clones), so
			// referencing the map copy is safe, exactly as in get.
			out[i].Warm = &a
		}
	}
	s.warm.mu.Unlock()
	return out
}

// InjectBatch inserts migrated bundles under their fingerprints, the
// destination half of a mass migration; ms[i] lands under fps[i].
// Semantics per entry match Inject: parts whose pipeline stage is disabled
// by config are dropped, and whether a Result should double as a warm seed
// is the caller's call.
func (s *Server) InjectBatch(fps []Fingerprint, ms []Migration) {
	if !s.cfg.DisableCache {
		keys := make([]uint64, 0, len(fps))
		results := make([]core.Result, 0, len(fps))
		for i := range fps {
			if ms[i].Result != nil {
				keys = append(keys, fps[i].Exact)
				results = append(results, *ms[i].Result)
			}
		}
		s.cache.PutBatch(keys, results)
	}
	if !s.cfg.DisableWarmStart {
		// Clone outside the warm-index lock, like put does.
		keys := make([]uint64, 0, len(fps))
		allocs := make([]fl.Allocation, 0, len(fps))
		for i := range fps {
			if ms[i].Warm != nil {
				keys = append(keys, fps[i].Topo)
				allocs = append(allocs, ms[i].Warm.Clone())
			}
		}
		s.warm.putBatch(keys, allocs)
	}
}

// putBatch inserts pre-cloned allocations under one lock; keys[i] gets
// allocs[i]. Eviction on overflow matches put.
func (w *warmIndex) putBatch(keys []uint64, allocs []fl.Allocation) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, key := range keys {
		w.insertLocked(key, allocs[i])
	}
}
