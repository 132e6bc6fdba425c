// Package cluster shards the allocation service of internal/serve across
// the cells of a cellular deployment. Each cell is a full serve.Server —
// its own worker pool and solution cache — and a Router in front of them
//
//   - routes requests by explicit cell ID, by a pin established through
//     handoff, or (for unpinned devices) by consistent hashing of the
//     device ID;
//   - hands devices off between cells, re-fingerprinting and migrating
//     their cached solutions so a replay after a move is a cache hit
//     instead of a cold solve;
//   - supports runtime membership changes: AddCell splices a fresh cell
//     into the consistent-hash ring and RemoveCell splices one out, each
//     installing a new ring generation; routing is epoch-checked, so a
//     request racing a membership change re-resolves onto the post-change
//     owner instead of failing against a cell that no longer exists;
//   - migrates devices in bulk: MassHandoff moves a whole set of devices
//     (a mass-mobility event, a cell drain, a rebalance) with one routing
//     lock acquisition and one bulk state transfer per cell, reusing the
//     fingerprints recorded when the instances were served instead of
//     re-hashing every instance per device;
//   - aggregates per-cell counters into cluster-wide stats (rolled-up
//     hit/miss/latency, cache sizes) and a Prometheus exposition;
//   - exposes an HTTP front end (POST /v1/cells/{id}/solve, POST
//     /v1/solve, POST /v1/handoff, GET /v1/stats, GET /metrics) used by
//     cmd/flcluster.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// CellAuto routes a request by device pin / consistent hash instead of an
// explicit cell index.
const CellAuto = -1

// ErrUnknownCell flags a cell ID that is not (or no longer) a member of
// the cluster. Errors carrying a concrete ID are UnknownCellError values
// that unwrap to this sentinel.
var ErrUnknownCell = errors.New("cluster: unknown cell")

// ErrLastCell refuses a removal that would leave the cluster empty.
var ErrLastCell = errors.New("cluster: cannot remove the last cell")

// ErrNoDevice flags a handoff without a device ID.
var ErrNoDevice = errors.New("cluster: missing device id")

// UnknownCellError is the typed form of ErrUnknownCell: it names the cell
// ID that failed to resolve, so HTTP front ends can answer with the
// uniform {"error":"unknown_cell","cell":N} body.
type UnknownCellError struct {
	Cell int
}

func (e UnknownCellError) Error() string { return fmt.Sprintf("cluster: unknown cell %d", e.Cell) }

// Unwrap makes errors.Is(err, ErrUnknownCell) hold.
func (e UnknownCellError) Unwrap() error { return ErrUnknownCell }

// Config parameterizes a Router. The zero value is usable.
type Config struct {
	// Cells is the number of per-cell servers at startup (IDs 0..Cells-1).
	// Default 4. Cells added later get fresh IDs; IDs are never reused.
	Cells int
	// Cell is the per-cell serve.Config template; every cell (initial or
	// added at runtime) gets an identical (but fully independent) server
	// built from it. Fingerprints are exact and cell-independent, which is
	// what lets bulk migration reuse recorded fingerprints instead of
	// re-hashing per cell.
	Cell serve.Config
	// HistoryPerDevice bounds how many distinct recent instances the
	// router remembers per device for handoff re-fingerprinting.
	// Default 8.
	HistoryPerDevice int
	// MaxDevices bounds the device-state map (pins + histories); beyond
	// it, an arbitrary device's state is evicted. Default 65536.
	MaxDevices int
	// HashReplicas is the virtual-node count per cell on the consistent
	// hash ring. Default 64.
	HashReplicas int
}

func (c Config) withDefaults() Config {
	if c.Cells <= 0 {
		c.Cells = 4
	}
	if c.HistoryPerDevice <= 0 {
		c.HistoryPerDevice = 8
	}
	if c.MaxDevices <= 0 {
		c.MaxDevices = 65536
	}
	if c.HashReplicas <= 0 {
		c.HashReplicas = 64
	}
	return c
}

// membership is one immutable generation of the cell set. Every
// membership change (AddCell, RemoveCell) installs a fresh value under a
// bumped generation number; requests snapshot the pointer once and route
// within that epoch. Immutability is what makes the epoch check cheap: a
// request that solved under generation G compares one integer to learn
// whether the world moved underneath it.
type membership struct {
	gen   uint64
	ids   []int // sorted live cell IDs
	cells map[int]*serve.Server
	ring  ring
}

func (m *membership) server(id int) (*serve.Server, bool) {
	s, ok := m.cells[id]
	return s, ok
}

// record is one instance a device was recently served, kept so a handoff
// can re-fingerprint it in the destination cell and migrate its cached
// state. The request is retained by reference and never mutated.
type record struct {
	req  serve.Request
	cell int
	// fp is the instance's fingerprint at record time. Fingerprints are
	// exact and cell-independent, so the same fingerprint is valid in
	// every cell, which is what lets MassHandoff migrate without
	// re-hashing; the per-device Handoff still re-fingerprints fresh (it
	// is the reference the bulk path is tested against).
	fp serve.Fingerprint
}

// deviceState is the router's memory of one device.
type deviceState struct {
	pinned  bool
	cell    int // the pinned cell, valid when pinned
	records []record
}

// Router owns the per-cell servers and the device routing state.
type Router struct {
	cfg Config

	// mem is the current membership; memMu serializes changes to it (the
	// pointer itself is atomic so the request path never takes memMu).
	mem    atomic.Pointer[membership]
	memMu  sync.Mutex
	nextID int // next cell ID to assign; guarded by memMu

	mu      sync.Mutex
	devices map[string]*deviceState

	handoffs        atomic.Int64
	massHandoffs    atomic.Int64
	migratedResults atomic.Int64
	routedExplicit  atomic.Int64
	routedPinned    atomic.Int64
	routedHashed    atomic.Int64
	rerouted        atomic.Int64
	cellsAdded      atomic.Int64
	cellsRemoved    atomic.Int64
}

// New builds the router and starts every cell's worker pool. Call Close to
// stop them.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		nextID:  cfg.Cells,
		devices: make(map[string]*deviceState),
	}
	ids := make([]int, cfg.Cells)
	cells := make(map[int]*serve.Server, cfg.Cells)
	for i := range ids {
		ids[i] = i
		cells[i] = serve.New(cfg.Cell)
	}
	r.mem.Store(&membership{
		gen:   0,
		ids:   ids,
		cells: cells,
		ring:  newRingFor(ids, cfg.HashReplicas),
	})
	return r
}

// Close stops every live cell's worker pool (in-flight solves finish).
// Cells removed earlier were closed at removal.
func (r *Router) Close() {
	for _, c := range r.mem.Load().cells {
		c.Close()
	}
}

// Cells returns the current cell count.
func (r *Router) Cells() int { return len(r.mem.Load().ids) }

// CellIDs returns the sorted IDs of the live cells.
func (r *Router) CellIDs() []int {
	return append([]int(nil), r.mem.Load().ids...)
}

// Generation returns the current ring generation; it increases by one per
// membership change.
func (r *Router) Generation() uint64 { return r.mem.Load().gen }

// Cell returns the cell server with the given ID (panics for a non-member
// ID); it backs tests and benchmarks that need to poke one cell directly.
func (r *Router) Cell(id int) *serve.Server {
	s, ok := r.mem.Load().server(id)
	if !ok {
		panic(UnknownCellError{Cell: id})
	}
	return s
}

// HasCell reports whether id is a live member.
func (r *Router) HasCell(id int) bool {
	_, ok := r.mem.Load().server(id)
	return ok
}

// CellServer is the non-panicking form of Cell: it returns the cell
// server with the given ID, or false for a non-member.
func (r *Router) CellServer(id int) (*serve.Server, bool) {
	return r.mem.Load().server(id)
}

// AddCell spins up a fresh cell from the Config.Cell template, splices it
// into the consistent-hash ring and installs the next ring generation. It
// returns the new cell's ID. Only the keyspace arcs claimed by the new
// cell change owners (~1/(N+1) of the unpinned keys); migrating the
// remapped devices' cached state is the control plane's job (see
// internal/ctrl), not the router's — until it happens, remapped devices
// simply cold-solve in their new cell.
func (r *Router) AddCell() int {
	r.memMu.Lock()
	defer r.memMu.Unlock()
	old := r.mem.Load()
	id := r.nextID
	r.nextID++
	ids := append(append([]int(nil), old.ids...), id)
	sort.Ints(ids)
	cells := make(map[int]*serve.Server, len(ids))
	for k, v := range old.cells {
		cells[k] = v
	}
	cells[id] = serve.New(r.cfg.Cell)
	r.mem.Store(&membership{
		gen:   old.gen + 1,
		ids:   ids,
		cells: cells,
		ring:  newRingFor(ids, r.cfg.HashReplicas),
	})
	r.cellsAdded.Add(1)
	return id
}

// RemoveCell splices a cell out of the ring (installing the next
// generation) and closes its server. Requests racing the removal are
// epoch-checked: a solve that finds the cell closed under a newer
// generation re-resolves onto the post-removal owner. RemoveCell does NOT
// migrate the cell's cached state or repin its devices — drain first
// (MassHandoff; internal/ctrl orchestrates suspend → migrate → remove) or
// accept the cold solves. Removing the last cell is refused.
func (r *Router) RemoveCell(id int) error {
	r.memMu.Lock()
	defer r.memMu.Unlock()
	old := r.mem.Load()
	srv, ok := old.cells[id]
	if !ok {
		return UnknownCellError{Cell: id}
	}
	if len(old.ids) == 1 {
		return fmt.Errorf("cell %d is the only member: %w", id, ErrLastCell)
	}
	ids := make([]int, 0, len(old.ids)-1)
	for _, c := range old.ids {
		if c != id {
			ids = append(ids, c)
		}
	}
	cells := make(map[int]*serve.Server, len(ids))
	for k, v := range old.cells {
		if k != id {
			cells[k] = v
		}
	}
	r.mem.Store(&membership{
		gen:   old.gen + 1,
		ids:   ids,
		cells: cells,
		ring:  newRingFor(ids, r.cfg.HashReplicas),
	})
	r.cellsRemoved.Add(1)
	// Close after the new membership is visible: new arrivals route past
	// the cell, and the stragglers already inside it either finish (solves
	// run to completion) or fail with ErrClosed and re-resolve.
	srv.Close()
	return nil
}

// routeIn resolves a device's cell within one membership epoch: the pinned
// cell when it is still a member, the consistent-hash owner otherwise. The
// counters attribute the decision.
func (r *Router) routeIn(mem *membership, deviceID string) int {
	if cell := r.pinOf(deviceID); cell >= 0 {
		if _, ok := mem.server(cell); ok {
			r.routedPinned.Add(1)
			return cell
		}
		// The pinned cell left the cluster (a drain repins devices, but a
		// plain RemoveCell or an eviction race can leave a stale pin);
		// fall through to the ring rather than failing the request.
	}
	r.routedHashed.Add(1)
	return mem.ring.cell(deviceID)
}

// Route resolves the cell a device-routed request would be served by
// without serving anything: the pinned cell when a handoff or explicit
// solve pinned the device (and the cell is still a member), the
// consistent-hash cell otherwise.
func (r *Router) Route(deviceID string) int {
	mem := r.mem.Load()
	r.mu.Lock()
	st, ok := r.devices[deviceID]
	pinned := ok && st.pinned
	cell := 0
	if pinned {
		cell = st.cell
	}
	r.mu.Unlock()
	if pinned {
		if _, ok := mem.server(cell); ok {
			return cell
		}
	}
	return mem.ring.cell(deviceID)
}

// Solve serves one request. cell selects the serving cell explicitly, or
// routes by deviceID when CellAuto: the device's pinned cell if any, its
// consistent-hash cell otherwise. A *successful* explicit-cell solve pins
// the device to that cell (the device demonstrably lives there now), so
// later device-routed requests follow it; a failed one leaves the routing
// state untouched — an overloaded or rejecting cell must not capture the
// device. The serving cell ID is returned alongside the response.
//
// Routing is epoch-checked: the route is resolved against one membership
// snapshot, and if the serving cell turns out closed while a newer
// generation is installed (a membership change raced the request), the
// request re-resolves once against the post-change ring instead of
// surfacing ErrClosed for a cell that no longer exists.
func (r *Router) Solve(ctx context.Context, cell int, deviceID string, req serve.Request) (serve.Response, int, error) {
	explicit := cell != CellAuto
	tr := obs.FromContext(ctx)
	for {
		mem := r.mem.Load()
		target := cell
		if explicit {
			if _, ok := mem.server(target); !ok {
				return serve.Response{}, 0, UnknownCellError{Cell: target}
			}
			r.routedExplicit.Add(1)
		} else {
			target = r.routeIn(mem, deviceID)
		}
		srv, ok := mem.server(target)
		if !ok { // only reachable for a poisoned ring; defensive
			return serve.Response{}, 0, UnknownCellError{Cell: target}
		}
		var attemptBegan time.Time
		if tr != nil {
			attemptBegan = time.Now()
		}
		resp, err := srv.Solve(ctx, req)
		if err != nil {
			if !explicit && errors.Is(err, serve.ErrClosed) && r.mem.Load().gen != mem.gen {
				// Epoch check failed: the membership moved while we were
				// queued on a cell that has since been drained. Land on
				// the post-move owner.
				r.rerouted.Add(1)
				tr.RecordAttr(obs.PhaseRoute, attemptBegan, obs.Attr{Cell: target, Detail: "rerouted: cell closed mid-flight"})
				continue
			}
			return serve.Response{}, target, err
		}
		tr.RecordAttr(obs.PhaseRoute, attemptBegan, obs.Attr{Cell: target})
		if deviceID != "" {
			if explicit {
				r.pin(deviceID, target)
			}
			r.remember(deviceID, target, req, resp.Fingerprint)
		}
		return resp, target, nil
	}
}

// SolveBatch serves many device-routed requests in one call: every item is
// routed exactly as a CellAuto Solve (device pin, else consistent hash),
// the items are grouped by destination cell, and each cell's group runs as
// one serve.SolveBatch — cache lookups and in-batch deduplication amortized
// per cell, the solves queued at the given priority. deviceIDs[i] names the
// device behind reqs[i] (empty routes to the hash of ""). Items come back
// in request order together with the cell that served each. The whole
// batch routes within one membership epoch; items racing a membership
// change fail individually rather than re-routing.
func (r *Router) SolveBatch(ctx context.Context, reqs []serve.Request, deviceIDs []string, pri serve.Priority) ([]serve.BatchItem, []int) {
	mem := r.mem.Load()
	items := make([]serve.BatchItem, len(reqs))
	cells := make([]int, len(reqs))
	byCell := make(map[int][]int)
	for i := range reqs {
		cell := r.routeIn(mem, deviceIDs[i])
		cells[i] = cell
		byCell[cell] = append(byCell[cell], i)
	}
	var wg sync.WaitGroup
	for cell, idxs := range byCell {
		wg.Add(1)
		go func(cell int, idxs []int) {
			defer wg.Done()
			sub := make([]serve.Request, len(idxs))
			for k, i := range idxs {
				sub[k] = reqs[i]
			}
			for k, it := range mem.cells[cell].SolveBatch(ctx, sub, pri) {
				items[idxs[k]] = it
			}
		}(cell, idxs)
	}
	wg.Wait()
	for i, it := range items {
		if it.Err == nil && deviceIDs[i] != "" {
			r.remember(deviceIDs[i], cells[i], reqs[i], it.Response.Fingerprint)
		}
	}
	return items, cells
}

// pinOf returns the pinned cell for a device, or -1.
func (r *Router) pinOf(deviceID string) int {
	if deviceID == "" {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.devices[deviceID]; ok && st.pinned {
		return st.cell
	}
	return -1
}

// pin pins a device to a cell.
func (r *Router) pin(deviceID string, cell int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state(deviceID)
	st.pinned, st.cell = true, cell
}

// remember appends a served instance to the device's history, deduping on
// the exact fingerprint and keeping the most recent HistoryPerDevice.
// Session-private requests (a caller-supplied Request.Fingerprint) are not
// recorded: their answers never enter a cell's cache, so a handoff would
// have nothing to carry for them, and recording them would push out the
// records that do.
func (r *Router) remember(deviceID string, cell int, req serve.Request, fp serve.Fingerprint) {
	if req.Fingerprint != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state(deviceID)
	for i := range st.records {
		if st.records[i].fp.Exact == fp.Exact {
			// Refresh recency and the serving cell, then move to the end.
			rec := st.records[i]
			rec.cell, rec.fp = cell, fp
			st.records = append(append(st.records[:i], st.records[i+1:]...), rec)
			return
		}
	}
	st.records = append(st.records, record{req: req, cell: cell, fp: fp})
	if len(st.records) > r.cfg.HistoryPerDevice {
		st.records = st.records[len(st.records)-r.cfg.HistoryPerDevice:]
	}
}

// state returns (creating if needed) the device's state; callers hold
// r.mu. The map is bounded: at MaxDevices an arbitrary other device is
// evicted — routing state is a best-effort hint, an evicted device simply
// falls back to hash routing and cold solves.
func (r *Router) state(deviceID string) *deviceState {
	if st, ok := r.devices[deviceID]; ok {
		return st
	}
	if len(r.devices) >= r.cfg.MaxDevices {
		for k := range r.devices {
			delete(r.devices, k)
			break
		}
	}
	st := &deviceState{}
	r.devices[deviceID] = st
	return st
}

// HandoffReport summarizes one cross-cell device handoff.
type HandoffReport struct {
	DeviceID string `json:"device_id"`
	FromCell int    `json:"from_cell"`
	ToCell   int    `json:"to_cell"`
	// Instances is how many tracked instances of the device were
	// re-fingerprinted against the source cell.
	Instances int `json:"instances"`
	// MigratedResults counts solution-cache entries moved to the
	// destination cell.
	MigratedResults int `json:"migrated_results"`
}

// Handoff moves a device from one cell to another: every tracked instance
// of the device is re-fingerprinted (once: the key is the same in every
// cell), its cached solution is extracted from the source cell and
// injected into the destination, and the device is pinned to the
// destination so device-routed requests follow it. After a handoff an
// exact replay of a carried instance in the destination is a cache hit,
// and the source cell no longer holds the cache entry.
//
// Instances whose history says they were last served by a different cell
// than from are left where they are. A device the router has never seen is
// still pinned to the destination.
//
// ctx carries the caller's lifecycle trace, if any: the extract and inject
// sides record spans against it (cell-tagged, so one trace shows state
// leaving the source and landing on the destination).
func (r *Router) Handoff(ctx context.Context, deviceID string, from, to int) (HandoffReport, error) {
	if deviceID == "" {
		return HandoffReport{}, ErrNoDevice
	}
	tr := obs.FromContext(ctx)
	mem := r.mem.Load()
	src, okFrom := mem.server(from)
	if !okFrom {
		return HandoffReport{}, UnknownCellError{Cell: from}
	}
	dst, okTo := mem.server(to)
	if !okTo {
		return HandoffReport{}, UnknownCellError{Cell: to}
	}
	rep := HandoffReport{DeviceID: deviceID, FromCell: from, ToCell: to}

	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state(deviceID)
	st.pinned, st.cell = true, to
	r.handoffs.Add(1)
	if from == to {
		return rep, nil
	}
	var began, t0 time.Time
	var extractDur, injectDur time.Duration
	if tr != nil {
		began = time.Now()
	}
	for i := range st.records {
		rec := &st.records[i]
		if rec.cell != from {
			continue
		}
		rep.Instances++
		fp := serve.FingerprintRequest(rec.req)
		if tr != nil {
			t0 = time.Now()
		}
		m := src.Extract(fp)
		if tr != nil {
			extractDur += time.Since(t0)
		}
		rec.cell, rec.fp = to, fp
		if m.Result == nil {
			continue // expired or evicted at the source; nothing to carry
		}
		if tr != nil {
			t0 = time.Now()
		}
		dst.Inject(fp, m)
		if tr != nil {
			injectDur += time.Since(t0)
		}
		rep.MigratedResults++
		r.migratedResults.Add(1)
	}
	if tr != nil {
		tr.RecordDur(obs.PhaseHandoffExtract, began, extractDur, obs.Attr{Cell: from, Value: int64(rep.Instances)})
		tr.RecordDur(obs.PhaseHandoffInject, began, injectDur, obs.Attr{Cell: to, Value: int64(rep.MigratedResults)})
	}
	return rep, nil
}

// Move is one device's planned migration in a MassHandoff: the device and
// the cell its state should land on. The sources are the cells its
// tracked instances currently live in (each record knows its own cell),
// so a Move needs no from field.
type Move struct {
	DeviceID string `json:"device_id"`
	To       int    `json:"to_cell"`
}

// CellFlow counts the instances a cell sent and received during one mass
// migration.
type CellFlow struct {
	In  int `json:"in"`
	Out int `json:"out"`
}

// MassHandoffReport summarizes one batched migration.
type MassHandoffReport struct {
	// Moves is how many device moves were requested; Devices is how many
	// actually had tracked state somewhere other than their destination.
	Moves   int `json:"moves"`
	Devices int `json:"devices_with_state"`
	// Instances counts the tracked instances considered for migration.
	Instances int `json:"instances"`
	// MigratedResults counts the cache entries that actually moved.
	MigratedResults int `json:"migrated_results"`
	// PerCell breaks the instance flow down by cell ID.
	PerCell map[int]CellFlow `json:"per_cell,omitempty"`
}

// MassHandoff migrates a whole set of devices in one batched pass — the
// mass-mobility counterpart of Handoff, and the mechanism behind cell
// drains and rebalances. Where a per-device Handoff loop pays, per device,
// one full instance re-fingerprint plus a routing-lock acquisition and
// per-entry cache operations, MassHandoff pays once: the routing lock is
// taken once for the whole batch, the fingerprints recorded when the
// instances were served are reused verbatim (fingerprints are exact, so a
// recorded fingerprint is valid at both ends), and the per-cell state
// transfer happens through the bulk ExtractBatch/InjectBatch APIs, which
// take each cache shard lock once per cell instead of once per device.
//
// pin controls the routing state after the move: true pins every device to
// its destination (mass mobility — the devices demonstrably moved), false
// clears the pins so the devices follow the ring (rebalancing back to hash
// ownership; the caller is expected to have chosen To as the ring owner).
//
// Records already living at their destination are left untouched. Every
// destination must be a live member; unknown cells fail the whole batch
// before anything moves.
//
// ctx carries the caller's lifecycle trace, if any: the plan walk and the
// per-cell extract/inject stages record cell-tagged spans against it, so a
// drain or rebalance trace shows where the migration time went.
func (r *Router) MassHandoff(ctx context.Context, moves []Move, pin bool) (MassHandoffReport, error) {
	tr := obs.FromContext(ctx)
	mem := r.mem.Load()
	rep := MassHandoffReport{Moves: len(moves), PerCell: make(map[int]CellFlow)}
	for _, mv := range moves {
		if mv.DeviceID == "" {
			return MassHandoffReport{}, ErrNoDevice
		}
		if _, ok := mem.server(mv.To); !ok {
			return MassHandoffReport{}, UnknownCellError{Cell: mv.To}
		}
	}
	r.massHandoffs.Add(1)

	// Phase 1 — ONE routing-lock acquisition for the whole batch, held
	// only for the map walk: repin every device, snapshot each migrating
	// record's fingerprint, and relabel the record to its destination
	// (the fingerprint stays valid: keys are cell-independent). The
	// bulk state transfer below then runs without r.mu, so routing never
	// stalls behind it — a request racing the transfer sees at worst a
	// cold solve, the same best-effort contract every cache miss has.
	type pending struct {
		fp  serve.Fingerprint
		to  int
		mig serve.Migration
	}
	bySrc := make(map[int][]*pending)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	r.mu.Lock()
	for _, mv := range moves {
		st := r.state(mv.DeviceID)
		if pin {
			st.pinned, st.cell = true, mv.To
		} else {
			st.pinned = false
		}
		moved := false
		for i := range st.records {
			rec := &st.records[i]
			if rec.cell == mv.To {
				continue
			}
			src := rec.cell
			rec.cell = mv.To
			if _, ok := mem.server(src); !ok {
				// The record's cell is already gone (state lost with it);
				// the relabel alone points future migrations right.
				continue
			}
			moved = true
			rep.Instances++
			bySrc[src] = append(bySrc[src], &pending{fp: rec.fp, to: mv.To})
		}
		if moved {
			rep.Devices++
		}
	}
	r.mu.Unlock()
	if tr != nil {
		tr.RecordAttr(obs.PhaseMassPlan, t0, obs.Attr{Cell: obs.CellNone, Value: int64(rep.Instances)})
	}

	// Phase 2 — bulk-extract per source cell off the recorded
	// fingerprints, one pass each, no routing lock held.
	byDst := make(map[int][]*pending)
	for src, ps := range bySrc {
		if tr != nil {
			t0 = time.Now()
		}
		fps := make([]serve.Fingerprint, len(ps))
		for i, p := range ps {
			fps[i] = p.fp
		}
		for i, m := range mem.cells[src].ExtractBatch(fps) {
			p := ps[i]
			p.mig = m
			if m.Result != nil {
				flow := rep.PerCell[src]
				flow.Out++
				rep.PerCell[src] = flow
				byDst[p.to] = append(byDst[p.to], p)
			}
		}
		if tr != nil {
			tr.RecordAttr(obs.PhaseMassExtract, t0, obs.Attr{Cell: src, Value: int64(len(ps))})
		}
	}

	// Bulk-inject per destination cell.
	for dst, ps := range byDst {
		if tr != nil {
			t0 = time.Now()
		}
		fps := make([]serve.Fingerprint, len(ps))
		migs := make([]serve.Migration, len(ps))
		for i, p := range ps {
			fps[i] = p.fp
			migs[i] = p.mig
			flow := rep.PerCell[dst]
			flow.In++
			rep.PerCell[dst] = flow
			rep.MigratedResults++
			r.migratedResults.Add(1)
		}
		mem.cells[dst].InjectBatch(fps, migs)
		if tr != nil {
			tr.RecordAttr(obs.PhaseMassInject, t0, obs.Attr{Cell: dst, Value: int64(len(ps))})
		}
	}
	return rep, nil
}

// Misplaced plans the moves that would bring every tracked device's cached
// state home to its current ring owner: a device is included when any of
// its records (or its pin) sits on a different live cell than the ring
// assigns. includePinned selects whether pinned devices — whose pin
// deliberately overrides the ring — are included (a rebalance moves them
// home and unpins; a post-AddCell backfill leaves them alone). The flows
// map counts, per cell, the tracked instances that would leave (Out, at
// the cell the record actually sits on) and arrive (In, at the owner) —
// the dry-run twin of MassHandoffReport.PerCell.
func (r *Router) Misplaced(includePinned bool) ([]Move, map[int]CellFlow) {
	mem := r.mem.Load()
	var moves []Move
	flows := make(map[int]CellFlow)
	r.mu.Lock()
	defer r.mu.Unlock()
	for dev, st := range r.devices {
		owner := mem.ring.cell(dev)
		if livePin(mem, st) {
			if !includePinned {
				continue
			}
			if st.cell == owner && recordsAllOn(st.records, owner) {
				continue
			}
		} else if recordsAllOn(st.records, owner) {
			continue
		}
		moves = append(moves, Move{DeviceID: dev, To: owner})
		for i := range st.records {
			if st.records[i].cell == owner {
				continue
			}
			from := flows[st.records[i].cell]
			from.Out++
			flows[st.records[i].cell] = from
			to := flows[owner]
			to.In++
			flows[owner] = to
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].DeviceID < moves[j].DeviceID })
	return moves, flows
}

// livePin reports whether the device is pinned to a live member. A pin to
// a removed cell (a crash removes without repinning) counts as no pin, as
// it does in routing, so DevicesOn and Misplaced agree with Route about
// where such a device lives.
func livePin(mem *membership, st *deviceState) bool {
	if !st.pinned {
		return false
	}
	_, ok := mem.server(st.cell)
	return ok
}

func recordsAllOn(records []record, cell int) bool {
	for i := range records {
		if records[i].cell != cell {
			return false
		}
	}
	return true
}

// DevicesOn lists the tracked devices whose current route resolves to the
// given cell (pinned there, or hash-owned by it when unpinned or pinned to
// a removed cell).
func (r *Router) DevicesOn(cell int) []string {
	mem := r.mem.Load()
	var devs []string
	r.mu.Lock()
	defer r.mu.Unlock()
	for dev, st := range r.devices {
		if livePin(mem, st) {
			if st.cell == cell {
				devs = append(devs, dev)
			}
			continue
		}
		if mem.ring.cell(dev) == cell {
			devs = append(devs, dev)
		}
	}
	sort.Strings(devs)
	return devs
}

// PlanDrain plans the evacuation of one cell: every device currently
// routed to it is assigned its owner under the ring WITHOUT that cell (the
// ring the cluster will run after RemoveCell), so a drain lands each
// device exactly where post-removal hashing would send it. The cell must
// be a live member and not the last one.
func (r *Router) PlanDrain(cell int) ([]Move, error) {
	mem := r.mem.Load()
	if _, ok := mem.server(cell); !ok {
		return nil, UnknownCellError{Cell: cell}
	}
	if len(mem.ids) == 1 {
		return nil, fmt.Errorf("cell %d is the only member: %w", cell, ErrLastCell)
	}
	ids := make([]int, 0, len(mem.ids)-1)
	for _, c := range mem.ids {
		if c != cell {
			ids = append(ids, c)
		}
	}
	post := newRingFor(ids, r.cfg.HashReplicas)
	devs := r.DevicesOn(cell)
	moves := make([]Move, len(devs))
	for i, dev := range devs {
		moves[i] = Move{DeviceID: dev, To: post.cell(dev)}
	}
	return moves, nil
}
