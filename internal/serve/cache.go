package serve

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/core"
)

const cacheShards = 16 // power of two; key distribution comes from FNV

// Cache is a sharded, mutex-per-shard LRU of solver results keyed by exact
// fingerprint. Entries expire after a TTL and the per-shard size is bounded,
// so a drifting workload cannot grow it without bound. Results are
// deep-copied on both insert and lookup; callers can mutate what they get
// back. Entries keep no per-device metric slices (see compactResult).
type Cache struct {
	shards   [cacheShards]cacheShard
	perShard int
	ttl      time.Duration
}

type cacheShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recent
	items map[uint64]*list.Element
}

type cacheEntry struct {
	key     uint64
	res     core.Result
	expires time.Time
}

// NewCache builds a cache holding at most maxEntries results (rounded up to
// a multiple of the shard count, minimum one per shard) for at most ttl;
// ttl <= 0 means entries never expire.
func NewCache(maxEntries int, ttl time.Duration) *Cache {
	perShard := (maxEntries + cacheShards - 1) / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{lru: list.New(), items: make(map[uint64]*list.Element)}
	}
	c.perShard = perShard
	c.ttl = ttl
	return c
}

// Get returns a copy of the cached result for key, if present and fresh.
// Entries are immutable once stored, so the deep copy runs outside the
// shard lock and a hot entry does not serialize its readers on the clone.
func (c *Cache) Get(key uint64) (core.Result, bool) {
	sh := &c.shards[key%cacheShards]
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		return core.Result{}, false
	}
	ent := el.Value.(*cacheEntry)
	if c.ttl > 0 && time.Now().After(ent.expires) {
		sh.lru.Remove(el)
		delete(sh.items, key)
		sh.mu.Unlock()
		return core.Result{}, false
	}
	sh.lru.MoveToFront(el)
	sh.mu.Unlock()
	return cloneResult(ent.res), true
}

// Put stores a copy of res under key, evicting the least-recently-used
// entry of the shard when it is full.
func (c *Cache) Put(key uint64, res core.Result) {
	ent := &cacheEntry{key: key, res: compactResult(res)} // clone outside the lock
	sh := &c.shards[key%cacheShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent.expires = time.Now().Add(c.ttl)
	if el, ok := sh.items[key]; ok {
		// Replace the value wholesale: entries stay immutable for the
		// lock-free clone in Get.
		el.Value = ent
		sh.lru.MoveToFront(el)
		return
	}
	if sh.lru.Len() >= c.perShard {
		if back := sh.lru.Back(); back != nil {
			sh.lru.Remove(back)
			delete(sh.items, back.Value.(*cacheEntry).key)
		}
	}
	sh.items[key] = sh.lru.PushFront(ent)
}

// Take removes and returns the cached result for key, if present and
// fresh. It is the extraction half of a cross-shard migration: unlike Get
// it does not clone, because removal makes the caller the sole owner (a
// concurrent Get that already holds the entry only reads from it).
func (c *Cache) Take(key uint64) (core.Result, bool) {
	sh := &c.shards[key%cacheShards]
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		return core.Result{}, false
	}
	ent := el.Value.(*cacheEntry)
	sh.lru.Remove(el)
	delete(sh.items, key)
	sh.mu.Unlock()
	if c.ttl > 0 && time.Now().After(ent.expires) {
		return core.Result{}, false
	}
	return ent.res, true
}

// TakeBatch removes and returns the cached results for a whole key set,
// grouping the keys by shard so each shard's lock is taken once instead of
// once per key; out[i] is the entry for keys[i], nil when absent or
// expired. Like Take, removal transfers ownership, so nothing is cloned.
func (c *Cache) TakeBatch(keys []uint64) []*core.Result {
	out := make([]*core.Result, len(keys))
	var byShard [cacheShards][]int
	for i, key := range keys {
		byShard[key%cacheShards] = append(byShard[key%cacheShards], i)
	}
	now := time.Now()
	for shard, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		sh := &c.shards[shard]
		sh.mu.Lock()
		for _, i := range idxs {
			el, ok := sh.items[keys[i]]
			if !ok {
				continue
			}
			ent := el.Value.(*cacheEntry)
			sh.lru.Remove(el)
			delete(sh.items, keys[i])
			if c.ttl > 0 && now.After(ent.expires) {
				continue
			}
			out[i] = &ent.res
		}
		sh.mu.Unlock()
	}
	return out
}

// PutBatch stores copies of many results, one shard-lock acquisition per
// shard touched; results[i] lands under keys[i]. Clones are taken outside
// the locks, exactly as Put does.
func (c *Cache) PutBatch(keys []uint64, results []core.Result) {
	ents := make([]*cacheEntry, len(keys))
	var byShard [cacheShards][]int
	for i, key := range keys {
		ents[i] = &cacheEntry{key: key, res: compactResult(results[i])}
		byShard[key%cacheShards] = append(byShard[key%cacheShards], i)
	}
	for shard, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		sh := &c.shards[shard]
		sh.mu.Lock()
		for _, i := range idxs {
			ent := ents[i]
			ent.expires = time.Now().Add(c.ttl)
			if el, ok := sh.items[ent.key]; ok {
				el.Value = ent
				sh.lru.MoveToFront(el)
				continue
			}
			if sh.lru.Len() >= c.perShard {
				if back := sh.lru.Back(); back != nil {
					sh.lru.Remove(back)
					delete(sh.items, back.Value.(*cacheEntry).key)
				}
			}
			sh.items[ent.key] = sh.lru.PushFront(ent)
		}
		sh.mu.Unlock()
	}
}

// Len reports the live entry count across shards (expired entries that have
// not been touched since expiry still count).
func (c *Cache) Len() int {
	var n int
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// compactResult is the copy a cache entry keeps: cloneResult without the
// per-device metric slices (rates, upload and compute times). No serving
// path reads them, System.Evaluate derives them from the allocation, and
// they take as much memory as the allocation itself.
func compactResult(r core.Result) core.Result {
	r.Metrics.Rates, r.Metrics.UploadTimes, r.Metrics.CompTimes = nil, nil, nil
	return cloneResult(r)
}

// cloneResult deep-copies a solver result so cache internals never alias
// caller-visible slices.
func cloneResult(r core.Result) core.Result {
	out := r
	out.Allocation = r.Allocation.Clone()
	out.Metrics.Rates = append([]float64(nil), r.Metrics.Rates...)
	out.Metrics.UploadTimes = append([]float64(nil), r.Metrics.UploadTimes...)
	out.Metrics.CompTimes = append([]float64(nil), r.Metrics.CompTimes...)
	out.Iterations = append([]core.IterationTrace(nil), r.Iterations...)
	return out
}
