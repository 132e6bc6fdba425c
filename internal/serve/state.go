package serve

import (
	"time"

	"repro/internal/core"
)

// This file is the durable-state codec over the solution cache: the
// substrate internal/replica serializes to disk (periodic snapshots, final
// flush on shutdown). Where Extract/ExtractBatch REMOVE state (a migration
// transfers ownership), the export path here COPIES it — a snapshot must
// never degrade the live server.

// CachedResult is one exact-fingerprint solution-cache entry in a
// ServerState.
type CachedResult struct {
	Key    uint64      `json:"key"`
	Result core.Result `json:"result"`
}

// ServerState is the serializable hot state of one Server: its solution
// cache, keyed by exact fingerprint. Snapshots written before the
// warm-start index was removed also carry a "warm" section; decoding
// ignores it.
type ServerState struct {
	Results []CachedResult `json:"results,omitempty"`
}

// ExportState copies the server's entire cache into a serializable
// state. The live server is untouched: entries are cloned (outside the
// shard locks — entries are immutable in place), so a snapshot ticker
// running against a hot server costs reads, not evictions.
func (s *Server) ExportState() ServerState {
	var st ServerState
	keys, results := s.cache.Dump()
	st.Results = make([]CachedResult, len(keys))
	for i := range keys {
		st.Results[i] = CachedResult{Key: keys[i], Result: results[i]}
	}
	return st
}

// ImportState inserts a previously exported state into the solution
// cache, batched so the restore takes each shard lock once. A server with
// its cache disabled drops it, exactly as Inject does. Existing entries
// under the same keys are replaced; everything else is kept, so importing
// into a populated server merges rather than resets.
func (s *Server) ImportState(st ServerState) {
	if !s.cfg.DisableCache && len(st.Results) > 0 {
		keys := make([]uint64, len(st.Results))
		results := make([]core.Result, len(st.Results))
		for i := range st.Results {
			keys[i] = st.Results[i].Key
			results[i] = st.Results[i].Result
		}
		s.cache.PutBatch(keys, results)
	}
}

// Dump copies every live (unexpired) cache entry, most recent first within
// each shard. Entries are immutable in place, so the deep copies run
// outside the shard locks off references collected under them.
func (c *Cache) Dump() ([]uint64, []core.Result) {
	var refs []*cacheEntry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		now := time.Now()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*cacheEntry)
			if c.ttl > 0 && now.After(ent.expires) {
				continue
			}
			refs = append(refs, ent)
		}
		sh.mu.Unlock()
	}
	keys := make([]uint64, len(refs))
	results := make([]core.Result, len(refs))
	for i, ent := range refs {
		keys[i] = ent.key
		results[i] = cloneResult(ent.res)
	}
	return keys, results
}
