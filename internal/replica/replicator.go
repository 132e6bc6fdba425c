package replica

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fl"
	"repro/internal/serve"
)

// ReplicatorConfig parameterizes a Replicator. Router is required.
type ReplicatorConfig struct {
	// Router is the cluster whose solves are observed and whose cells the
	// replicas protect.
	Router *cluster.Router
	// Interval is the flush cadence: how long a solve may sit dirty
	// before its warm state is shipped (the replication lag bound under
	// light traffic). Zero selects 1 second; negative disables the ticker
	// (tests drive Flush directly).
	Interval time.Duration
	// MaxDirty triggers an early flush when this many devices are dirty,
	// so the lag stays bounded under heavy churn too. Default 256.
	MaxDirty int
	// MaxDevices bounds the per-source-cell replica store; beyond it an
	// arbitrary device's replica is evicted (best-effort, like the warm
	// index). Default 65536.
	MaxDevices int
	// Logger receives flush/promotion events; nil uses slog.Default().
	Logger *slog.Logger
}

func (c ReplicatorConfig) withDefaults() ReplicatorConfig {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.MaxDirty <= 0 {
		c.MaxDirty = 256
	}
	if c.MaxDevices <= 0 {
		c.MaxDevices = 65536
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// dirtyEntry tracks one device with unshipped solves: the cell that
// served them, the fingerprints touched, and when it first went dirty
// (the age of the oldest unshipped state — the current replication lag).
type dirtyEntry struct {
	cell  int
	fps   map[uint64]serve.Fingerprint // keyed by exact fingerprint
	since time.Time
}

// warmBundle is one replicated warm seed: the fingerprint it is filed
// under and the allocation that makes a successor's first re-solve warm.
// Replication deliberately ships the warm state only, never the solution cache: a crash degrades the keyspace to
// warm-but-not-cached, and the cache refills on the successor naturally.
type warmBundle struct {
	fp   serve.Fingerprint
	warm *fl.Allocation
}

// devReplica is one device's replicated state held for a source cell.
type devReplica struct {
	bundles   map[uint64]warmBundle // keyed by topology bucket
	shippedAt time.Time
}

// Replicator coalesces the cluster's solve stream into asynchronous
// warm-state shipments keyed by source cell — the in-process stand-in
// for shipping to each cell's ring successor over the network. The hook
// installed on the router marks devices dirty; the flush loop ships each
// dirty device's warm allocation into the replica store
// (bounded lag: one shipment covers all solves since the last); Promote
// injects a dead cell's replicas into the post-crash ring owners.
type Replicator struct {
	cfg ReplicatorConfig
	log *slog.Logger

	mu    sync.Mutex
	dirty map[string]*dirtyEntry
	// store holds each source cell's replicas: store[cell][device]. On a
	// crash, store[cell] is exactly what Promote hands the successors.
	store map[int]map[string]*devReplica

	flushes      atomic.Int64
	shippedWarm  atomic.Int64
	flushDropped atomic.Int64
	promotions   atomic.Int64
	promotedWarm atomic.Int64
	lostDirty    atomic.Int64

	kick      chan struct{}
	started   atomic.Bool
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewReplicator builds a replicator and installs its solve hook on the
// router; call Start to begin the flush loop, Close to stop it and
// uninstall the hook.
func NewReplicator(cfg ReplicatorConfig) *Replicator {
	cfg = cfg.withDefaults()
	r := &Replicator{
		cfg:   cfg,
		log:   cfg.Logger,
		dirty: make(map[string]*dirtyEntry),
		store: make(map[int]map[string]*devReplica),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	cfg.Router.SetServeHook(r.observe)
	return r
}

// observe is the router's per-solve hook: mark the device dirty under
// its serving cell. It runs on the request path, so the critical section
// is a map upsert and nothing more; the actual state copy happens on the
// flush goroutine.
func (r *Replicator) observe(deviceID string, cell int, fp serve.Fingerprint) {
	r.mu.Lock()
	d := r.dirty[deviceID]
	if d == nil {
		d = &dirtyEntry{fps: make(map[uint64]serve.Fingerprint, 4), since: time.Now()}
		r.dirty[deviceID] = d
	}
	d.cell = cell
	d.fps[fp.Exact] = fp
	n := len(r.dirty)
	r.mu.Unlock()
	if n >= r.cfg.MaxDirty {
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
}

// Start launches the flush loop (ticker + early-flush kicks).
func (r *Replicator) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(r.done)
		var tick <-chan time.Time
		if r.cfg.Interval > 0 {
			t := time.NewTicker(r.cfg.Interval)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-r.stop:
				return
			case <-tick:
				r.Flush()
			case <-r.kick:
				r.Flush()
			}
		}
	}()
}

// Close stops the flush loop and uninstalls the router hook. Safe to
// call more than once.
func (r *Replicator) Close() {
	r.closeOnce.Do(func() {
		r.cfg.Router.SetServeHook(nil)
		close(r.stop)
		if r.started.Load() {
			<-r.done
		}
	})
}

// Flush ships every dirty device's warm state into the replica store:
// the dirty set is swapped out under the lock, each source cell's
// fingerprints are peeked in one batch (copies — the serving cell keeps
// its state), and the warm allocations land in the store
// keyed by source cell. Returns how many warm seeds shipped.
func (r *Replicator) Flush() int {
	r.mu.Lock()
	if len(r.dirty) == 0 {
		r.mu.Unlock()
		return 0
	}
	dirty := r.dirty
	r.dirty = make(map[string]*dirtyEntry)
	r.mu.Unlock()
	r.flushes.Add(1)

	// Group by source cell, preserving per-device attribution.
	type devFps struct {
		dev string
		fps []serve.Fingerprint
	}
	byCell := make(map[int][]devFps)
	for dev, d := range dirty {
		fps := make([]serve.Fingerprint, 0, len(d.fps))
		for _, fp := range d.fps {
			fps = append(fps, fp)
		}
		byCell[d.cell] = append(byCell[d.cell], devFps{dev: dev, fps: fps})
	}

	shipped := 0
	now := time.Now()
	for cell, devs := range byCell {
		srv, ok := r.cfg.Router.CellServer(cell)
		if !ok {
			// The cell died between the solve and the flush; its state is
			// gone and there is nothing to ship. Promote already counted
			// the dirty entries it saw — these arrived after.
			r.flushDropped.Add(int64(len(devs)))
			continue
		}
		// One batched peek per (cell, device): bundles stay attributed to
		// the device so promotion can re-key them by ring owner.
		for _, df := range devs {
			migs := srv.PeekBatch(df.fps)
			var bundles []warmBundle
			for i, m := range migs {
				warm := m.Warm
				if warm == nil && m.Result != nil {
					// Warm bucket evicted but the solution survives: its
					// allocation is just as good a seed (mirrors the
					// handoff path's prepareMigration).
					warm = &m.Result.Allocation
				}
				if warm == nil {
					continue
				}
				bundles = append(bundles, warmBundle{fp: df.fps[i], warm: warm})
			}
			if len(bundles) == 0 {
				continue
			}
			r.mu.Lock()
			cellStore := r.store[cell]
			if cellStore == nil {
				cellStore = make(map[string]*devReplica)
				r.store[cell] = cellStore
			}
			rep := cellStore[df.dev]
			if rep == nil {
				if len(cellStore) >= r.cfg.MaxDevices {
					for k := range cellStore {
						delete(cellStore, k)
						break
					}
				}
				rep = &devReplica{bundles: make(map[uint64]warmBundle, len(bundles))}
				cellStore[df.dev] = rep
			}
			for _, b := range bundles {
				rep.bundles[b.fp.Topo] = b
			}
			rep.shippedAt = now
			r.mu.Unlock()
			shipped += len(bundles)
		}
	}
	r.shippedWarm.Add(int64(shipped))
	return shipped
}

// PromoteReport summarizes one crash promotion.
type PromoteReport struct {
	// Cell is the dead cell whose replicas were promoted.
	Cell int `json:"cell"`
	// Devices is how many devices had replicated state; WarmSeeds how
	// many warm allocation bundles landed on successors.
	Devices   int `json:"devices"`
	WarmSeeds int `json:"warm_seeds"`
	// LostDirty is how many devices had solves still unflushed at crash
	// time — state inside the replication lag window, lost with the cell.
	LostDirty int `json:"lost_dirty"`
	// MaxLagSeconds is the age of the stalest promoted replica (how far
	// behind the primary the replica was when the cell died).
	MaxLagSeconds float64 `json:"max_lag_seconds"`
	// PerCell counts the warm seeds injected into each successor.
	PerCell map[int]int `json:"per_cell,omitempty"`
}

// Promote injects a dead cell's replicas into the devices' post-crash
// ring owners. Call AFTER the cell has been removed from the ring: the
// installed ring is then the post-crash ring, so RingOwners resolves
// exactly where each device's traffic now lands. Dirty entries still
// pointing at the dead cell are dropped and counted — they are the lag
// window's loss.
func (r *Replicator) Promote(cell int) PromoteReport {
	rep := PromoteReport{Cell: cell, PerCell: make(map[int]int)}
	r.mu.Lock()
	devs := r.store[cell]
	delete(r.store, cell)
	for dev, d := range r.dirty {
		if d.cell == cell {
			delete(r.dirty, dev)
			rep.LostDirty++
		}
	}
	r.mu.Unlock()
	r.promotions.Add(1)
	r.lostDirty.Add(int64(rep.LostDirty))
	if len(devs) == 0 {
		return rep
	}

	devices := make([]string, 0, len(devs))
	for dev := range devs {
		devices = append(devices, dev)
	}
	owners := r.cfg.Router.RingOwners(devices)
	now := time.Now()

	type ship struct {
		fps  []serve.Fingerprint
		migs []serve.Migration
	}
	byOwner := make(map[int]*ship)
	for dev, replica := range devs {
		owner := owners[dev]
		s := byOwner[owner]
		if s == nil {
			s = &ship{}
			byOwner[owner] = s
		}
		for _, b := range replica.bundles {
			s.fps = append(s.fps, b.fp)
			s.migs = append(s.migs, serve.Migration{Warm: b.warm})
		}
		if lag := now.Sub(replica.shippedAt).Seconds(); lag > rep.MaxLagSeconds {
			rep.MaxLagSeconds = lag
		}
		rep.Devices++
	}
	for owner, s := range byOwner {
		srv, ok := r.cfg.Router.CellServer(owner)
		if !ok {
			continue // owner died too; its own promotion will cover what it can
		}
		srv.InjectBatch(s.fps, s.migs)
		rep.WarmSeeds += len(s.fps)
		rep.PerCell[owner] += len(s.fps)
	}
	r.promotedWarm.Add(int64(rep.WarmSeeds))
	return rep
}

// ReplicaStats is the replicator's counter view for /v1/stats and
// /metrics.
type ReplicaStats struct {
	Flushes      int64 `json:"flushes"`
	ShippedWarm  int64 `json:"shipped_warm_seeds"`
	FlushDropped int64 `json:"flush_dropped_devices"`
	Promotions   int64 `json:"promotions"`
	PromotedWarm int64 `json:"promoted_warm_seeds"`
	LostDirty    int64 `json:"lost_dirty_devices"`
	// DirtyDevices is the current unshipped backlog; DirtyLagSeconds the
	// age of its oldest entry (the current replication lag).
	DirtyDevices    int     `json:"dirty_devices"`
	DirtyLagSeconds float64 `json:"dirty_lag_seconds"`
	// StoreDevices is the total replicated device count across source
	// cells; StoreCells how many source cells have replicas.
	StoreDevices int `json:"store_devices"`
	StoreCells   int `json:"store_cells"`
}

// Stats snapshots the replicator.
func (r *Replicator) Stats() ReplicaStats {
	st := ReplicaStats{
		Flushes:      r.flushes.Load(),
		ShippedWarm:  r.shippedWarm.Load(),
		FlushDropped: r.flushDropped.Load(),
		Promotions:   r.promotions.Load(),
		PromotedWarm: r.promotedWarm.Load(),
		LostDirty:    r.lostDirty.Load(),
	}
	now := time.Now()
	r.mu.Lock()
	st.DirtyDevices = len(r.dirty)
	for _, d := range r.dirty {
		if lag := now.Sub(d.since).Seconds(); lag > st.DirtyLagSeconds {
			st.DirtyLagSeconds = lag
		}
	}
	st.StoreCells = len(r.store)
	for _, devs := range r.store {
		st.StoreDevices += len(devs)
	}
	r.mu.Unlock()
	return st
}

// WritePrometheus emits the replica_* series.
func (st ReplicaStats) WritePrometheus(pw *serve.PromWriter) {
	pw.Counter("replica_flushes_total", "Replication flush passes.", "", float64(st.Flushes))
	pw.Counter("replica_shipped_warm_seeds_total", "Warm allocation bundles shipped to the replica store.", "", float64(st.ShippedWarm))
	pw.Counter("replica_flush_dropped_devices_total", "Dirty devices dropped at flush because their cell was gone.", "", float64(st.FlushDropped))
	pw.Counter("replica_promotions_total", "Crash promotions executed.", "", float64(st.Promotions))
	pw.Counter("replica_promoted_warm_seeds_total", "Warm bundles injected into successors at promotion.", "", float64(st.PromotedWarm))
	pw.Counter("replica_lost_dirty_devices_total", "Devices whose unflushed solves were lost with a crashed cell.", "", float64(st.LostDirty))
	pw.Gauge("replica_dirty_devices", "Devices with solves not yet shipped.", "", float64(st.DirtyDevices))
	pw.Gauge("replica_lag_seconds", "Age of the oldest unshipped solve (current replication lag).", "", st.DirtyLagSeconds)
	pw.Gauge("replica_store_devices", "Devices with replicated state across all source cells.", "", float64(st.StoreDevices))
	pw.Gauge("replica_store_cells", "Source cells with replicated state.", "", float64(st.StoreCells))
}
