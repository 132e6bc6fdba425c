package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/fl"
)

// This file is the durable-state codec over the cache and warm index: the
// substrate internal/replica serializes to disk (periodic snapshots, final
// flush on shutdown) and ships to ring successors (crash replication).
// Where Extract/ExtractBatch REMOVE state (a migration transfers
// ownership), the export/peek paths here COPY it — a snapshot or a replica
// shipment must never degrade the live server.

// CachedResult is one exact-fingerprint solution-cache entry in a
// ServerState.
type CachedResult struct {
	Key    uint64      `json:"key"`
	Result core.Result `json:"result"`
}

// WarmSeed is one topology-bucket warm-start entry in a ServerState: the
// most recent allocation solved in that bucket.
type WarmSeed struct {
	Key   uint64        `json:"key"`
	Alloc fl.Allocation `json:"alloc"`
}

// ServerState is the serializable hot state of one Server: the solution
// cache (keyed by exact fingerprint) and the warm-start index (keyed by
// topology bucket). The two sections are independent — cache entries and
// warm seeds are keyed in different spaces and either may be present
// without the other.
type ServerState struct {
	Results []CachedResult `json:"results,omitempty"`
	Warm    []WarmSeed     `json:"warm,omitempty"`
}

// ExportState copies the server's entire cache and warm index into a
// serializable state. The live server is untouched: entries are cloned
// (outside the shard locks — entries are immutable in place), so a
// snapshot ticker running against a hot server costs reads, not
// evictions.
func (s *Server) ExportState() ServerState {
	var st ServerState
	keys, results := s.cache.Dump()
	st.Results = make([]CachedResult, len(keys))
	for i := range keys {
		st.Results[i] = CachedResult{Key: keys[i], Result: results[i]}
	}
	wkeys, allocs := s.warm.dump()
	st.Warm = make([]WarmSeed, len(wkeys))
	for i := range wkeys {
		st.Warm[i] = WarmSeed{Key: wkeys[i], Alloc: allocs[i]}
	}
	return st
}

// ImportState inserts a previously exported state: cache entries land in
// the solution cache, warm seeds in the warm index, each batched so the
// restore takes each shard lock once. Sections whose pipeline stage is
// disabled by config are dropped, exactly as Inject does. Existing
// entries under the same keys are replaced; everything else is kept, so
// importing into a warm server merges rather than resets.
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
	if !s.cfg.DisableWarmStart && len(st.Warm) > 0 {
		keys := make([]uint64, 0, len(st.Warm))
		allocs := make([]fl.Allocation, 0, len(st.Warm))
		for i := range st.Warm {
			keys = append(keys, st.Warm[i].Key)
			allocs = append(allocs, st.Warm[i].Alloc.Clone())
		}
		s.warm.putBatch(keys, allocs)
	}
}

// PeekBatch copies the migration bundles for a fingerprint set WITHOUT
// removing anything — the replication counterpart of ExtractBatch, which
// transfers ownership. A cell shipping hot state to its ring successor
// must keep serving that state itself; out[i] corresponds to fps[i].
func (s *Server) PeekBatch(fps []Fingerprint) []Migration {
	out := make([]Migration, len(fps))
	keys := make([]uint64, len(fps))
	for i := range fps {
		keys[i] = fps[i].Exact
	}
	for i, res := range s.cache.GetBatch(keys) {
		out[i].Result = res
	}
	s.warm.mu.Lock()
	for i := range fps {
		if a, ok := s.warm.m[fps[i].Topo]; ok {
			// Entries are immutable (put stores private clones), so
			// referencing the map copy is safe, exactly as in ExtractBatch.
			out[i].Warm = &a
		}
	}
	s.warm.mu.Unlock()
	return out
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

// GetBatch returns copies of the cached results for a key set without
// removing them — the non-destructive twin of TakeBatch; out[i] is the
// entry for keys[i], nil when absent or expired. Clones run outside the
// shard locks (entries are immutable in place), and recency is refreshed
// exactly as Get does.
func (c *Cache) GetBatch(keys []uint64) []*core.Result {
	out := make([]*core.Result, len(keys))
	refs := make([]*cacheEntry, len(keys))
	var byShard [cacheShards][]int
	for i, key := range keys {
		byShard[key%cacheShards] = append(byShard[key%cacheShards], i)
	}
	for shard, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		sh := &c.shards[shard]
		sh.mu.Lock()
		now := time.Now()
		for _, i := range idxs {
			el, ok := sh.items[keys[i]]
			if !ok {
				continue
			}
			ent := el.Value.(*cacheEntry)
			if c.ttl > 0 && now.After(ent.expires) {
				sh.lru.Remove(el)
				delete(sh.items, keys[i])
				continue
			}
			sh.lru.MoveToFront(el)
			refs[i] = ent
		}
		sh.mu.Unlock()
	}
	for i, ent := range refs {
		if ent != nil {
			res := cloneResult(ent.res)
			out[i] = &res
		}
	}
	return out
}

// dump copies every warm entry's key and allocation; entries are
// immutable in place, so the references are safe to hand out.
func (w *warmIndex) dump() ([]uint64, []fl.Allocation) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keys := make([]uint64, 0, len(w.m))
	allocs := make([]fl.Allocation, 0, len(w.m))
	for k, a := range w.m {
		keys = append(keys, k)
		allocs = append(allocs, a)
	}
	return keys, allocs
}
