// Package ctrl is the runtime cluster control plane: the layer that turns
// the fixed-N cell cluster of internal/cluster into an elastic one.
//
// The data plane (cluster router + stream sessions) serves traffic; the
// control plane owns membership and bulk state migration:
//
//   - AddCell spins up a fresh cell, splices it into the consistent-hash
//     ring under a new generation, and back-fills only the remapped
//     keyspace: the ~1/(N+1) of tracked, hash-routed devices whose ring
//     owner became the new cell get their cached solutions moved over
//     in one batched MassHandoff — nobody else is touched.
//   - DrainCell evacuates a cell before removal: the stream sessions of
//     every affected device are suspended (deltas keep applying in
//     sequence order and queue — no ErrStaleSeq ever reaches a client),
//     the cell's cached solutions and device pins migrate to each
//     device's post-removal ring owner in one batched MassHandoff, the
//     cell leaves the ring (a new generation; racing requests re-resolve
//     via the router's epoch check), and the sessions resume — their
//     queued deltas coalesce into one re-solve on the destination cell.
//   - The rebalance planner reports, per cell, how many devices' cached
//     state sits away from its current ring owner (pins drift during
//     mobility); Rebalance executes the plan as a batched migration and
//     returns the devices to hash routing.
//
// The control plane exposes its own HTTP endpoints (POST /v1/cells,
// DELETE /v1/cells/{id}, GET /v1/rebalance/plan, POST /v1/rebalance)
// layered over the data-plane handler, a "ctrl" section in GET /v1/stats
// and ctrl_* Prometheus series in GET /metrics.
package ctrl

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Plane is the control plane over one cluster router and (optionally) the
// stream session manager mounted on it. All operations are safe for
// concurrent use; membership operations serialize among themselves but
// never stop the data plane — traffic keeps flowing while cells join and
// leave.
type Plane struct {
	router *cluster.Router
	mgr    *stream.Manager // nil when no streaming layer is mounted

	// mu serializes membership operations (add / drain / rebalance): two
	// concurrent drains planning against the same snapshot would migrate
	// against stale rings.
	mu sync.Mutex
	// lastSuspended is the session count of the most recent suspend, read
	// into the operation's report; guarded by mu.
	lastSuspended int

	// events receives crash notifications (the health evaluator files
	// them in its alert ring); snapshotter is the durability layer's
	// handle, surfaced via stats/metrics. Both are set before serving,
	// nil when absent.
	events      EventRecorder
	snapshotter *replica.Snapshotter

	cellsAdded        atomic.Int64
	cellsRemoved      atomic.Int64
	crashes           atomic.Int64
	drains            atomic.Int64
	rebalances        atomic.Int64
	movedDevices      atomic.Int64
	migratedResults   atomic.Int64
	suspendedSessions atomic.Int64
	autoscale         autoscaleCounters

	// log receives structured membership-change events (set before the
	// plane serves traffic; nil falls back to slog.Default()).
	log *slog.Logger

	// ops retains the most recent completed control operations for the ops
	// dashboard and the "ctrl" stats section.
	ops *obs.Ring[OpJSON]
}

// opsRing is how many completed control operations Snapshot.RecentOps
// retains.
const opsRing = 64

// New builds a control plane over the router; mgr may be nil when no
// streaming layer is mounted (drains then skip session suspension).
func New(r *cluster.Router, mgr *stream.Manager) *Plane {
	return &Plane{router: r, mgr: mgr, ops: obs.NewRing[OpJSON](opsRing)}
}

// OpJSON is one completed control-plane operation in the recent-ops ring:
// what ran, against which cell, what it moved, and the trace that explains
// it.
type OpJSON struct {
	// Op is the operation kind: "add", "drain", "crash", "rebalance".
	Op string `json:"op"`
	// Cell is the cell operated on (absent for rebalance).
	Cell int `json:"cell,omitempty"`
	// Generation is the ring generation after the operation.
	Generation uint64 `json:"generation"`
	// Moved counts devices whose state migrated; Suspended the stream
	// sessions suspended around the migration.
	Moved     int `json:"moved_devices"`
	Suspended int `json:"suspended_sessions,omitempty"`
	// DurationMS is the operation's wall time.
	DurationMS float64 `json:"duration_ms"`
	// TraceID links to the operation's lifecycle trace, when traced.
	TraceID string `json:"trace_id,omitempty"`
	// Time is when the operation completed.
	Time time.Time `json:"time"`
}

// recordOp appends a completed operation to the recent-ops ring.
func (p *Plane) recordOp(op OpJSON) {
	op.Time = time.Now()
	p.ops.Append(op)
}

// Router returns the governed data-plane router.
func (p *Plane) Router() *cluster.Router { return p.router }

// SetLogger routes the plane's structured membership-change events (cell
// added, drain, rebalance — all carrying the operation's trace ID) to l.
// Call before serving; nil keeps slog.Default().
func (p *Plane) SetLogger(l *slog.Logger) { p.log = l }

func (p *Plane) logger() *slog.Logger {
	if p.log != nil {
		return p.log
	}
	return slog.Default()
}

// AddCellReport is the outcome of one cell addition.
type AddCellReport struct {
	// Cell is the new cell's ID (stable, never reused).
	Cell int `json:"cell"`
	// Generation is the ring generation installed by the splice.
	Generation uint64 `json:"generation"`
	// Cells is the post-add membership.
	Cells []int `json:"cells"`
	// Backfill is the batched migration that moved the remapped keyspace
	// (the tracked, hash-routed devices whose ring owner became the new
	// cell — ~1/(N+1) of them) onto the new cell. Devices pinned elsewhere
	// by mobility are deliberately left alone.
	Backfill cluster.MassHandoffReport `json:"backfill"`
}

// AddCell grows the cluster by one cell and back-fills the remapped
// keyspace. Only the devices the new ring arcs claim move — their cached
// solutions land on the new cell in one batched pass, so a post-add replay
// of a remapped device is a cache hit, not a cold solve. Their stream
// sessions (if any) are suspended around the move, so in-flight deltas queue
// and coalesce instead of racing the migration. ctx carries the operation's
// lifecycle trace, if any; the backfill migration records spans against it.
func (p *Plane) AddCell(ctx context.Context) (AddCellReport, error) {
	tr := obs.FromContext(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	began := time.Now()
	id := p.router.AddCell()
	p.cellsAdded.Add(1)
	rep := AddCellReport{
		Cell:       id,
		Generation: p.router.Generation(),
		Cells:      p.router.CellIDs(),
	}
	// The remapped keyspace: unpinned devices whose ring owner is now the
	// new cell but whose state still lives on the old one.
	misplaced, _ := p.router.Misplaced(false)
	var moves []cluster.Move
	for _, mv := range misplaced {
		if mv.To == id {
			moves = append(moves, mv)
		}
	}
	defer func() {
		p.recordOp(OpJSON{
			Op: "add", Cell: id, Generation: rep.Generation,
			Moved: rep.Backfill.Devices, Suspended: p.lastSuspended,
			DurationMS: float64(time.Since(began).Microseconds()) / 1e3,
			TraceID:    tr.ID(),
		})
		p.logger().Info("cell added",
			"trace_id", tr.ID(), "cell", id, "generation", rep.Generation,
			"backfilled_devices", rep.Backfill.Devices)
	}()
	if len(moves) == 0 {
		return rep, nil
	}
	resume := p.suspendSessions(moves)
	defer resume()
	// pin=false: these devices follow the ring (that is why they moved);
	// pinning them would glue them to this cell across future changes.
	var err error
	rep.Backfill, err = p.router.MassHandoff(ctx, moves, false)
	if err != nil {
		return rep, fmt.Errorf("backfilling cell %d: %w", id, err)
	}
	p.countMigration(rep.Backfill)
	return rep, nil
}

// DrainReport is the outcome of one cell drain + removal.
type DrainReport struct {
	// Cell is the removed cell's ID.
	Cell int `json:"cell"`
	// Generation is the ring generation installed by the removal.
	Generation uint64 `json:"generation"`
	// Cells is the post-removal membership.
	Cells []int `json:"cells"`
	// SuspendedSessions is how many live stream sessions were suspended
	// (deltas queued and coalesced) around the migration.
	SuspendedSessions int `json:"suspended_sessions"`
	// Handoff is the batched migration that evacuated the cell.
	Handoff cluster.MassHandoffReport `json:"mass_handoff"`
}

// DrainCell evacuates and removes one cell. Every device currently routed to
// it migrates — cached solutions and the routing pin — to its owner under
// the post-removal ring, in one batched MassHandoff (one routing-lock
// acquisition, one bulk state transfer per cell). Stream sessions of
// affected devices are suspended first: their in-flight deltas apply and
// queue in sequence order, and after the move they coalesce into a single
// re-solve on the destination cell. Draining the last cell is refused.
//
// ctx carries the operation's lifecycle trace, if any: the plan, session
// suspension, migration, removal and resume stages each record a span, so
// one trace explains where a drain's time went. Drains are logged at warn
// level (they are deliberate disruptions) with the trace ID.
func (p *Plane) DrainCell(ctx context.Context, id int) (DrainReport, error) {
	tr := obs.FromContext(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	opBegan := time.Now()
	began := opBegan
	moves, err := p.router.PlanDrain(id)
	if err != nil {
		return DrainReport{}, err
	}
	tr.RecordAttr(obs.PhaseDrainPlan, began, obs.Attr{Cell: id, Value: int64(len(moves))})
	rep := DrainReport{Cell: id}
	began = time.Now()
	resume := p.suspendSessionsOn(id, moves)
	rep.SuspendedSessions = p.lastSuspended
	tr.RecordAttr(obs.PhaseDrainSuspend, began, obs.Attr{Cell: id, Value: int64(rep.SuspendedSessions)})
	defer func() {
		rb := time.Now()
		resume()
		tr.RecordAttr(obs.PhaseDrainResume, rb, obs.Attr{Cell: obs.CellNone, Value: int64(rep.SuspendedSessions)})
	}()
	rep.Handoff, err = p.router.MassHandoff(ctx, moves, true)
	if err != nil {
		return DrainReport{}, fmt.Errorf("draining cell %d: %w", id, err)
	}
	p.countMigration(rep.Handoff)
	began = time.Now()
	if err := p.router.RemoveCell(id); err != nil {
		return DrainReport{}, err
	}
	tr.RecordAttr(obs.PhaseDrainRemove, began, obs.Attr{Cell: id})
	p.cellsRemoved.Add(1)
	p.drains.Add(1)
	rep.Generation = p.router.Generation()
	rep.Cells = p.router.CellIDs()
	p.recordOp(OpJSON{
		Op: "drain", Cell: id, Generation: rep.Generation,
		Moved: rep.Handoff.Devices, Suspended: rep.SuspendedSessions,
		DurationMS: float64(time.Since(opBegan).Microseconds()) / 1e3,
		TraceID:    tr.ID(),
	})
	p.logger().Warn("cell drained",
		"trace_id", tr.ID(), "cell", id, "generation", rep.Generation,
		"moved_devices", rep.Handoff.Devices,
		"migrated_results", rep.Handoff.MigratedResults,
		"suspended_sessions", rep.SuspendedSessions)
	return rep, nil
}

// RebalancePlan is the dry-run view of a rebalance: how much cached state
// sits away from its ring owner, per cell.
type RebalancePlan struct {
	// Generation is the ring generation the plan was computed against.
	Generation uint64 `json:"generation"`
	// Moves is how many devices would migrate.
	Moves int `json:"moves"`
	// PerCell counts the moved keys per cell: Out keys leave the cell
	// (their state lives there but the ring owns them elsewhere), In keys
	// arrive (the cell is their ring owner).
	PerCell map[int]cluster.CellFlow `json:"per_cell"`
}

// RebalancePlan reports what POST /v1/rebalance would do right now:
// every tracked device (pinned ones included — pins drift during
// mobility) whose cached state is not already on its ring owner, with the
// instance flow counted per cell from where each record actually sits.
// No state moves.
func (p *Plane) RebalancePlan() RebalancePlan {
	moves, flows := p.router.Misplaced(true)
	return RebalancePlan{
		Generation: p.router.Generation(),
		Moves:      len(moves),
		PerCell:    flows,
	}
}

// RebalanceReport is the outcome of one executed rebalance.
type RebalanceReport struct {
	// Generation is the ring generation the rebalance ran under.
	Generation uint64 `json:"generation"`
	// SuspendedSessions is how many live stream sessions were suspended
	// around the migration.
	SuspendedSessions int `json:"suspended_sessions"`
	// Handoff is the batched migration.
	Handoff cluster.MassHandoffReport `json:"mass_handoff"`
}

// Rebalance executes the current plan: misplaced devices' cached state
// moves home to each one's ring owner in one batched MassHandoff, and the
// devices return to hash routing (pins cleared) so future ring changes
// keep moving only the remapped arcs. ctx carries the operation's
// lifecycle trace, if any; the event is warn-logged with the trace ID.
func (p *Plane) Rebalance(ctx context.Context) (RebalanceReport, error) {
	tr := obs.FromContext(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	opBegan := time.Now()
	moves, _ := p.router.Misplaced(true)
	rep := RebalanceReport{Generation: p.router.Generation()}
	if len(moves) == 0 {
		return rep, nil
	}
	resume := p.suspendSessions(moves)
	rep.SuspendedSessions = p.lastSuspended
	defer resume()
	var err error
	rep.Handoff, err = p.router.MassHandoff(ctx, moves, false)
	if err != nil {
		return RebalanceReport{}, fmt.Errorf("rebalancing: %w", err)
	}
	p.countMigration(rep.Handoff)
	p.rebalances.Add(1)
	p.recordOp(OpJSON{
		Op: "rebalance", Generation: rep.Generation,
		Moved: rep.Handoff.Devices, Suspended: rep.SuspendedSessions,
		DurationMS: float64(time.Since(opBegan).Microseconds()) / 1e3,
		TraceID:    tr.ID(),
	})
	p.logger().Warn("rebalanced",
		"trace_id", tr.ID(), "generation", rep.Generation,
		"moved_devices", rep.Handoff.Devices,
		"migrated_results", rep.Handoff.MigratedResults,
		"suspended_sessions", rep.SuspendedSessions)
	return rep, nil
}

// suspendSessions suspends the stream sessions of every device in moves
// and returns the matching resume. A nil manager makes both no-ops.
func (p *Plane) suspendSessions(moves []cluster.Move) func() {
	devs := make(map[string]bool, len(moves))
	for _, mv := range moves {
		devs[mv.DeviceID] = true
	}
	return p.suspendDeviceSet(devs)
}

// suspendSessionsOn is suspendSessions plus the drain special case: a
// session's device may route to the draining cell without appearing in
// moves (its router state fell out of the bounded device table), and its
// deltas must still not race the removal.
func (p *Plane) suspendSessionsOn(cell int, moves []cluster.Move) func() {
	devs := make(map[string]bool, len(moves))
	for _, mv := range moves {
		devs[mv.DeviceID] = true
	}
	if p.mgr != nil {
		for _, dev := range p.mgr.SessionDevices() {
			if p.router.Route(dev) == cell {
				devs[dev] = true
			}
		}
	}
	return p.suspendDeviceSet(devs)
}

func (p *Plane) suspendDeviceSet(devs map[string]bool) func() {
	p.lastSuspended = 0
	if p.mgr == nil || len(devs) == 0 {
		return func() {}
	}
	n := p.mgr.SuspendDevices(devs)
	p.lastSuspended = n
	p.suspendedSessions.Add(int64(n))
	return func() { p.mgr.ResumeDevices(devs) }
}

func (p *Plane) countMigration(rep cluster.MassHandoffReport) {
	p.movedDevices.Add(int64(rep.Devices))
	p.migratedResults.Add(int64(rep.MigratedResults))
}

// Snapshot is the control plane's counter view, the "ctrl" section of
// GET /v1/stats.
type Snapshot struct {
	// Cells is the live membership; Generation the current ring epoch.
	Cells      []int  `json:"cells"`
	Generation uint64 `json:"generation"`
	// CellsAdded/CellsRemoved/Drains/Rebalances count control operations.
	CellsAdded   int64 `json:"cells_added"`
	CellsRemoved int64 `json:"cells_removed"`
	Drains       int64 `json:"drains"`
	Rebalances   int64 `json:"rebalances"`
	// Crashes counts drain-less removals (failure injections).
	Crashes int64 `json:"crashes"`
	// MovedDevices counts devices whose state migrated in control-plane
	// batches; MigratedResults the cache entries that moved with them.
	MovedDevices    int64 `json:"moved_devices"`
	MigratedResults int64 `json:"migrated_results"`
	// SuspendedSessions counts stream sessions suspended around control-
	// plane migrations (their deltas queued + coalesced, never failed).
	SuspendedSessions int64 `json:"suspended_sessions"`
	// AutoscaleAdds/AutoscaleDrains are the subset of adds/removals that
	// the health layer's autoscaler initiated (vs operator API calls).
	AutoscaleAdds   int64 `json:"autoscale_adds"`
	AutoscaleDrains int64 `json:"autoscale_drains"`
	// RecentOps lists the most recent completed control operations, newest
	// first, each with its trace ID.
	RecentOps []OpJSON `json:"recent_ops,omitempty"`
}

// Stats snapshots the control plane.
func (p *Plane) Stats() Snapshot {
	return Snapshot{
		Cells:             p.router.CellIDs(),
		Generation:        p.router.Generation(),
		CellsAdded:        p.cellsAdded.Load(),
		CellsRemoved:      p.cellsRemoved.Load(),
		Drains:            p.drains.Load(),
		Rebalances:        p.rebalances.Load(),
		Crashes:           p.crashes.Load(),
		MovedDevices:      p.movedDevices.Load(),
		MigratedResults:   p.migratedResults.Load(),
		SuspendedSessions: p.suspendedSessions.Load(),
		AutoscaleAdds:     p.autoscale.adds.Load(),
		AutoscaleDrains:   p.autoscale.drains.Load(),
		RecentOps:         p.ops.Snapshot(),
	}
}

// WritePrometheus emits the ctrl_* series.
func (s Snapshot) WritePrometheus(pw *serve.PromWriter) {
	pw.Gauge("ctrl_cells", "Live cells in the cluster.", "", float64(len(s.Cells)))
	pw.Gauge("ctrl_ring_generation", "Current consistent-hash ring generation.", "", float64(s.Generation))
	pw.Counter("ctrl_cells_added_total", "Cells added at runtime.", "", float64(s.CellsAdded))
	pw.Counter("ctrl_cells_removed_total", "Cells drained and removed at runtime.", "", float64(s.CellsRemoved))
	pw.Counter("ctrl_drains_total", "Completed cell drains.", "", float64(s.Drains))
	pw.Counter("ctrl_rebalances_total", "Executed rebalances.", "", float64(s.Rebalances))
	pw.Counter("ctrl_crashes_total", "Drain-less cell removals (failure injections).", "", float64(s.Crashes))
	pw.Counter("ctrl_moved_devices_total", "Devices migrated by control-plane batches.", "", float64(s.MovedDevices))
	pw.Counter("ctrl_migrated_results_total", "Cache entries migrated by control-plane batches.", "", float64(s.MigratedResults))
	pw.Counter("ctrl_suspended_sessions_total", "Stream sessions suspended around control-plane migrations.", "", float64(s.SuspendedSessions))
	pw.Counter("ctrl_autoscale_adds_total", "Cells added by the autoscaler.", "", float64(s.AutoscaleAdds))
	pw.Counter("ctrl_autoscale_drains_total", "Cells drained by the autoscaler.", "", float64(s.AutoscaleDrains))
}
