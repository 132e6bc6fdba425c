package serve

import "repro/internal/core"

// This file is the bulk half of the cross-cell migration API: where
// Extract/Inject move one fingerprint's cache entry with one lock round
// trip each, ExtractBatch/InjectBatch move a whole batch with one lock
// acquisition per cache shard. Mass-mobility migrations
// (internal/cluster.MassHandoff) ride these so a thousand devices leaving
// a cell cost thousands of map operations, not thousands of lock convoys.

// ExtractBatch removes the solution-cache entries for every fingerprint in
// one batched pass; out[i] corresponds to fps[i]. Semantics per entry
// match Extract: the server answers that exact fingerprint cold again.
func (s *Server) ExtractBatch(fps []Fingerprint) []Migration {
	out := make([]Migration, len(fps))
	keys := make([]uint64, len(fps))
	for i := range fps {
		keys[i] = fps[i].Exact
	}
	for i, res := range s.cache.TakeBatch(keys) {
		out[i].Result = res
	}
	return out
}

// InjectBatch inserts migrated cache entries under their fingerprints, the
// destination half of a mass migration; ms[i] lands under fps[i].
// Semantics per entry match Inject.
func (s *Server) InjectBatch(fps []Fingerprint, ms []Migration) {
	if s.cfg.DisableCache {
		return
	}
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
