package ctrl

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
)

// EventRecorder receives control-plane lifecycle events (cell crashes). The
// health evaluator implements it structurally — ctrl stays free of a health
// import, mirroring the autoscale Actuator pattern in the other direction.
type EventRecorder interface {
	// RecordEvent files one event: kind is a short slug ("crash"), cell
	// the affected cell, message a human-readable
	// summary for the alert ring.
	RecordEvent(kind string, cell int, message string)
}

// SetEvents routes crash events to rec (typically the health
// evaluator's alert ring). Call before serving; nil disables.
func (p *Plane) SetEvents(rec EventRecorder) { p.events = rec }

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
}

// CrashCell removes a cell WITHOUT draining it — the failure-injection
// twin of DrainCell. Nothing migrates: the cell leaves the ring under a
// new generation and closes, its solution cache dying with it, exactly
// as if the process segfaulted. In-flight solves on the cell fail with
// ErrClosed and re-resolve onto the post-crash ring owner via the
// router's epoch check; stale pins self-heal the same way on the next
// request, which solves cold there. Removing the last cell is refused.
func (p *Plane) CrashCell(ctx context.Context, id int) (CrashReport, error) {
	tr := obs.FromContext(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	opBegan := time.Now()
	if err := p.router.RemoveCell(id); err != nil {
		return CrashReport{}, err
	}
	tr.RecordAttr(obs.PhaseCrashRemove, opBegan, obs.Attr{Cell: id})
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
	p.recordOp(OpJSON{
		Op: "crash", Cell: id, Generation: rep.Generation,
		DurationMS: float64(time.Since(opBegan).Microseconds()) / 1e3,
		TraceID:    tr.ID(),
	})
	p.logger().Warn("cell crashed (no drain)",
		"trace_id", tr.ID(), "cell", id, "generation", rep.Generation)
	return rep, nil
}
