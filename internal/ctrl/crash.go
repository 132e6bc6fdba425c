package ctrl

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
)

// EventRecorder receives control-plane lifecycle events (cell crashes,
// replica promotions). The health evaluator implements it structurally —
// ctrl stays free of a health import, mirroring the autoscale Actuator
// pattern in the other direction.
type EventRecorder interface {
	// RecordEvent files one event: kind is a short slug ("crash",
	// "promotion"), cell the affected cell, message a human-readable
	// summary for the alert ring.
	RecordEvent(kind string, cell int, message string)
}

// SetEvents routes crash/recovery events to rec (typically the health
// evaluator's alert ring). Call before serving; nil disables.
func (p *Plane) SetEvents(rec EventRecorder) { p.events = rec }

// SetReplicator attaches the ring-successor replicator: CrashCell will
// promote the crashed cell's replicas, and /v1/stats and /metrics grow a
// "replica" section / replica_* series. Call before serving; nil detaches.
func (p *Plane) SetReplicator(rep *replica.Replicator) { p.replicator = rep }

// SetSnapshotter attaches the process snapshotter so /v1/stats and
// /metrics expose its "snapshot" section / snapshot_* series. Call before
// serving; nil detaches.
func (p *Plane) SetSnapshotter(s *replica.Snapshotter) { p.snapshotter = s }

// CrashReport is the outcome of one simulated crash removal.
type CrashReport struct {
	// Cell is the crashed cell's ID.
	Cell int `json:"cell"`
	// Generation is the ring generation installed by the removal.
	Generation uint64 `json:"generation"`
	// Cells is the post-crash membership.
	Cells []int `json:"cells"`
	// Promotion is what the replicator salvaged: the crashed cell's
	// replicated warm seeds, injected into each device's post-crash ring
	// owner. Zero-valued when no replicator is attached.
	Promotion replica.PromoteReport `json:"promotion"`
}

// CrashCell removes a cell WITHOUT draining it — the failure-injection
// twin of DrainCell. Nothing migrates: the cell leaves the ring under a
// new generation and closes, its cache/warm state dying with it,
// exactly as if the process segfaulted. In-flight solves on the cell fail
// with ErrClosed and re-resolve onto the post-crash ring owner via the
// router's epoch check; stale pins self-heal the same way on the next
// request. If a replicator is attached, the dead cell's replicated warm
// state is then promoted into the successors, so the crashed keyspace
// degrades to warm-but-not-cached instead of cold. Removing the last
// cell is refused.
func (p *Plane) CrashCell(ctx context.Context, id int) (CrashReport, error) {
	tr := obs.FromContext(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	opBegan := time.Now()
	began := opBegan
	if err := p.router.RemoveCell(id); err != nil {
		return CrashReport{}, err
	}
	tr.RecordAttr(obs.PhaseCrashRemove, began, obs.Attr{Cell: id})
	p.cellsRemoved.Add(1)
	p.crashes.Add(1)
	rep := CrashReport{
		Cell:       id,
		Generation: p.router.Generation(),
		Cells:      p.router.CellIDs(),
	}
	if p.events != nil {
		p.events.RecordEvent("crash", id, fmt.Sprintf(
			"cell %d crashed (drain-less removal), generation %d, %d cells remain",
			id, rep.Generation, len(rep.Cells)))
	}
	if p.replicator != nil {
		began = time.Now()
		rep.Promotion = p.replicator.Promote(id)
		tr.RecordAttr(obs.PhaseCrashPromote, began,
			obs.Attr{Cell: id, Value: int64(rep.Promotion.WarmSeeds)})
		p.promotedWarm.Add(int64(rep.Promotion.WarmSeeds))
		if p.events != nil && rep.Promotion.Devices > 0 {
			p.events.RecordEvent("promotion", id, fmt.Sprintf(
				"promoted replicas of crashed cell %d: %d devices, %d warm seeds, %d dirty lost, %.3fs max lag",
				id, rep.Promotion.Devices, rep.Promotion.WarmSeeds,
				rep.Promotion.LostDirty, rep.Promotion.MaxLagSeconds))
		}
	}
	p.recordOp(OpJSON{
		Op: "crash", Cell: id, Generation: rep.Generation,
		Moved:      rep.Promotion.Devices,
		DurationMS: float64(time.Since(opBegan).Microseconds()) / 1e3,
		TraceID:    tr.ID(),
	})
	p.logger().Warn("cell crashed (no drain)",
		"trace_id", tr.ID(), "cell", id, "generation", rep.Generation,
		"promoted_devices", rep.Promotion.Devices,
		"promoted_warm_seeds", rep.Promotion.WarmSeeds,
		"lost_dirty_devices", rep.Promotion.LostDirty,
		"replica_lag_seconds", rep.Promotion.MaxLagSeconds)
	return rep, nil
}
