package cluster

import (
	"io"
	"strconv"
	"time"

	"repro/internal/serve"
)

// CellStats is one cell's snapshot, tagged with its index.
type CellStats struct {
	Cell int `json:"cell"`
	serve.Snapshot
}

// Aggregate is the cluster-wide rollup: every counter and occupancy gauge
// summed over cells, latency quantiles recomputed from the merged recent
// windows (quantiles do not sum), plus the router's own counters.
type Aggregate struct {
	serve.Snapshot
	// Generation is the current ring generation (bumped once per
	// membership change); CellsAdded/CellsRemoved count the changes.
	Generation   uint64 `json:"ring_generation"`
	CellsAdded   int64  `json:"cells_added"`
	CellsRemoved int64  `json:"cells_removed"`
	// Handoffs counts completed Handoff calls (no-ops included);
	// MassHandoffs counts batched MassHandoff calls.
	Handoffs     int64 `json:"handoffs"`
	MassHandoffs int64 `json:"mass_handoffs"`
	// Rerouted counts requests that re-resolved onto a post-change owner
	// after racing a membership change (the epoch check firing).
	Rerouted int64 `json:"rerouted"`
	// MigratedResults counts solution-cache entries moved across cells.
	MigratedResults int64 `json:"migrated_results"`
	// PinnedDevices is how many devices are currently pinned to a cell.
	PinnedDevices int `json:"pinned_devices"`
	// TrackedDevices is how many devices the router holds state for.
	TrackedDevices int `json:"tracked_devices"`
	// RoutedExplicit/RoutedPinned/RoutedHashed break down how requests
	// chose their cell.
	RoutedExplicit int64 `json:"routed_explicit"`
	RoutedPinned   int64 `json:"routed_pinned"`
	RoutedHashed   int64 `json:"routed_hashed"`
}

// Stats is the cluster snapshot: the rollup plus every cell.
type Stats struct {
	Aggregate Aggregate   `json:"aggregate"`
	Cells     []CellStats `json:"cells"`
}

// Stats snapshots every live cell and rolls the counters up. Cells are
// reported by ID (IDs are stable across membership changes and never
// reused).
func (r *Router) Stats() Stats {
	mem := r.mem.Load()
	out := Stats{Cells: make([]CellStats, len(mem.ids))}
	agg := &out.Aggregate
	var lat, hitLat, qwLat []time.Duration
	for i, id := range mem.ids {
		c := mem.cells[id]
		snap := c.Stats()
		out.Cells[i] = CellStats{Cell: id, Snapshot: snap}
		agg.Requests += snap.Requests
		agg.Hits += snap.Hits
		agg.Misses += snap.Misses
		agg.ColdSolves += snap.ColdSolves
		agg.Deduped += snap.Deduped
		agg.Rejected += snap.Rejected
		agg.Errors += snap.Errors
		agg.CacheEntries += snap.CacheEntries
		agg.QueueLen += snap.QueueLen
		agg.BulkQueueLen += snap.BulkQueueLen
		agg.BatchRequests += snap.BatchRequests
		agg.BatchItems += snap.BatchItems
		agg.TrackedBuckets += snap.TrackedBuckets
		agg.Convergence.Merge(snap.Convergence)
		lat = append(lat, c.SolveLatencies()...)
		hitLat = append(hitLat, c.CacheHitLatencies()...)
		qwLat = append(qwLat, c.QueueWaitLatencies()...)
	}
	agg.SolveP50, agg.SolveP99 = serve.LatencyQuantiles(lat)
	agg.CacheHitP50, agg.CacheHitP99 = serve.LatencyQuantiles(hitLat)
	agg.QueueWaitP50, agg.QueueWaitP99 = serve.LatencyQuantiles(qwLat)
	agg.Generation = mem.gen
	agg.CellsAdded = r.cellsAdded.Load()
	agg.CellsRemoved = r.cellsRemoved.Load()
	agg.Handoffs = r.handoffs.Load()
	agg.MassHandoffs = r.massHandoffs.Load()
	agg.Rerouted = r.rerouted.Load()
	agg.MigratedResults = r.migratedResults.Load()
	agg.RoutedExplicit = r.routedExplicit.Load()
	agg.RoutedPinned = r.routedPinned.Load()
	agg.RoutedHashed = r.routedHashed.Load()
	r.mu.Lock()
	agg.TrackedDevices = len(r.devices)
	for _, st := range r.devices {
		if st.pinned {
			agg.PinnedDevices++
		}
	}
	r.mu.Unlock()
	return out
}

// WritePrometheus emits the cluster in Prometheus text exposition: each
// cell's series under the "flserve" prefix with a cell label, and the
// router's own counters plus the merged latency quantiles under
// "flcluster". Per-cell series are left unaggregated (summing is the
// monitoring system's job; pre-summed duplicates would double-count).
func (s Stats) WritePrometheus(w io.Writer) error {
	pw := serve.NewPromWriter(w)
	for _, c := range s.Cells {
		c.Snapshot.WritePrometheus(pw, "flserve", `cell="`+strconv.Itoa(c.Cell)+`"`)
	}
	a := s.Aggregate
	pw.Gauge("flcluster_ring_generation", "Current consistent-hash ring generation.", "", float64(a.Generation))
	pw.Gauge("flcluster_cells", "Live cells in the cluster.", "", float64(len(s.Cells)))
	pw.Counter("flcluster_cells_added_total", "Cells added at runtime.", "", float64(a.CellsAdded))
	pw.Counter("flcluster_cells_removed_total", "Cells removed at runtime.", "", float64(a.CellsRemoved))
	pw.Counter("flcluster_handoffs_total", "Cross-cell device handoffs.", "", float64(a.Handoffs))
	pw.Counter("flcluster_mass_handoffs_total", "Batched mass migrations (drains, rebalances, mobility events).", "", float64(a.MassHandoffs))
	pw.Counter("flcluster_rerouted_total", "Requests re-resolved after racing a membership change.", "", float64(a.Rerouted))
	pw.Counter("flcluster_migrated_results_total", "Solution-cache entries moved across cells.", "", float64(a.MigratedResults))
	pw.Counter("flcluster_routed_total", "Requests by routing decision.", `via="explicit"`, float64(a.RoutedExplicit))
	pw.Counter("flcluster_routed_total", "Requests by routing decision.", `via="pinned"`, float64(a.RoutedPinned))
	pw.Counter("flcluster_routed_total", "Requests by routing decision.", `via="hashed"`, float64(a.RoutedHashed))
	pw.Gauge("flcluster_pinned_devices", "Devices currently pinned to a cell.", "", float64(a.PinnedDevices))
	pw.Gauge("flcluster_tracked_devices", "Devices the router holds state for.", "", float64(a.TrackedDevices))
	pw.Gauge("flcluster_solve_latency_seconds", "Cluster-wide recent solve latency quantiles.", `quantile="0.5"`, a.SolveP50)
	pw.Gauge("flcluster_solve_latency_seconds", "Cluster-wide recent solve latency quantiles.", `quantile="0.99"`, a.SolveP99)
	pw.Gauge("flcluster_cache_hit_latency_seconds", "Cluster-wide recent cache-hit path latency quantiles.", `quantile="0.5"`, a.CacheHitP50)
	pw.Gauge("flcluster_cache_hit_latency_seconds", "Cluster-wide recent cache-hit path latency quantiles.", `quantile="0.99"`, a.CacheHitP99)
	pw.Gauge("flcluster_queue_wait_seconds", "Cluster-wide recent queue-wait quantiles.", `quantile="0.5"`, a.QueueWaitP50)
	pw.Gauge("flcluster_queue_wait_seconds", "Cluster-wide recent queue-wait quantiles.", `quantile="0.99"`, a.QueueWaitP99)
	pw.Gauge("flcluster_queue_len", "Cluster-wide instantaneous queue depth (interactive).", "", float64(a.QueueLen))
	pw.Gauge("flcluster_bulk_queue_len", "Cluster-wide instantaneous queue depth (bulk).", "", float64(a.BulkQueueLen))
	return pw.Err()
}
