package replica

import (
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/stream"
)

// SnapshotterConfig parameterizes a Snapshotter. Path and Capture are
// required.
type SnapshotterConfig struct {
	// Path is the snapshot file (its directory is created on first save).
	Path string
	// Interval is the periodic-save cadence. Zero selects 30 seconds;
	// negative disables the ticker (saves happen only via SaveNow and the
	// final flush in Close).
	Interval time.Duration
	// Capture produces the snapshot to persist; it runs on the ticker
	// goroutine and must be safe to call concurrently with traffic (the
	// serve/stream export paths are).
	Capture func() Snapshot
	// Logger receives save/restore events; nil uses slog.Default().
	Logger *slog.Logger
}

// Snapshotter persists periodic snapshots of a serving process. Start
// launches the ticker; Close performs one final flush and stops it — the
// graceful-shutdown path that makes a SIGTERM lose at most nothing
// instead of at most one interval.
type Snapshotter struct {
	cfg SnapshotterConfig
	log *slog.Logger

	saves     atomic.Int64
	saveErrs  atomic.Int64
	lastBytes atomic.Int64
	lastUnix  atomic.Int64

	started   atomic.Bool
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewSnapshotter builds a snapshotter; call Start to begin the ticker.
func NewSnapshotter(cfg SnapshotterConfig) *Snapshotter {
	if cfg.Interval == 0 {
		cfg.Interval = 30 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	return &Snapshotter{cfg: cfg, log: log, stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the periodic-save loop (a no-op when Interval < 0, or
// when already started).
func (s *Snapshotter) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(s.done)
		if s.cfg.Interval < 0 {
			<-s.stop
			return
		}
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if err := s.SaveNow(); err != nil {
					s.log.Warn("snapshot save failed", "path", s.cfg.Path, "err", err)
				}
			}
		}
	}()
}

// SaveNow captures and persists one snapshot synchronously.
func (s *Snapshotter) SaveNow() error {
	snap := s.cfg.Capture()
	snap.SavedAt = time.Now()
	data, err := Encode(snap)
	if err != nil {
		s.saveErrs.Add(1)
		return err
	}
	if err := Save(s.cfg.Path, snap); err != nil {
		s.saveErrs.Add(1)
		return err
	}
	s.saves.Add(1)
	s.lastBytes.Store(int64(len(data)))
	s.lastUnix.Store(snap.SavedAt.UnixNano())
	return nil
}

// Close flushes one final snapshot and stops the ticker; the flush error
// (if any) is returned so shutdown paths can log it. Safe to call more
// than once.
func (s *Snapshotter) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.stop)
		if s.started.Load() {
			<-s.done
		}
		err = s.SaveNow()
	})
	return err
}

// SnapshotterStats is the snapshotter's counter view for /v1/stats and
// /metrics.
type SnapshotterStats struct {
	Saves      int64     `json:"saves"`
	SaveErrors int64     `json:"save_errors"`
	LastBytes  int64     `json:"last_bytes"`
	LastSaved  time.Time `json:"last_saved,omitempty"`
}

// Stats snapshots the save counters.
func (s *Snapshotter) Stats() SnapshotterStats {
	st := SnapshotterStats{
		Saves:      s.saves.Load(),
		SaveErrors: s.saveErrs.Load(),
		LastBytes:  s.lastBytes.Load(),
	}
	if ns := s.lastUnix.Load(); ns != 0 {
		st.LastSaved = time.Unix(0, ns)
	}
	return st
}

// WritePrometheus emits the snapshot_* series.
func (st SnapshotterStats) WritePrometheus(pw *serve.PromWriter) {
	pw.Counter("snapshot_saves_total", "Snapshots persisted (periodic and final flushes).", "", float64(st.Saves))
	pw.Counter("snapshot_save_errors_total", "Snapshot saves that failed.", "", float64(st.SaveErrors))
	pw.Gauge("snapshot_last_bytes", "Encoded size of the most recent snapshot.", "", float64(st.LastBytes))
	if !st.LastSaved.IsZero() {
		pw.Gauge("snapshot_last_save_timestamp_seconds", "Unix time of the most recent successful save.", "", float64(st.LastSaved.UnixNano())/1e9)
	}
}

// CaptureServer builds a Capture for a single-server process: the
// server's state as cell 0, plus the manager's sessions (mgr may be
// nil).
func CaptureServer(srv *serve.Server, mgr *stream.Manager) func() Snapshot {
	return func() Snapshot {
		snap := Snapshot{Cells: []CellState{{Cell: 0, State: srv.ExportState()}}}
		if mgr != nil {
			snap.Sessions = mgr.ExportSessions()
		}
		return snap
	}
}

// CaptureCluster builds a Capture for a cluster: every live cell's state
// under its ID, plus the manager's sessions (mgr may be nil).
func CaptureCluster(r *cluster.Router, mgr *stream.Manager) func() Snapshot {
	return func() Snapshot {
		var snap Snapshot
		for _, id := range r.CellIDs() {
			srv, ok := r.CellServer(id)
			if !ok {
				continue // removed between CellIDs and here
			}
			snap.Cells = append(snap.Cells, CellState{Cell: id, State: srv.ExportState()})
		}
		if mgr != nil {
			snap.Sessions = mgr.ExportSessions()
		}
		return snap
	}
}

// RestoreReport summarizes what a restore landed.
type RestoreReport struct {
	// Cells is how many cell-state sections were imported; Results the
	// cache entries they carried.
	Cells   int `json:"cells"`
	Results int `json:"results"`
	// Sessions is how many stream sessions were recreated.
	Sessions int `json:"sessions"`
}

// RestoreServer imports a snapshot into a single-server process: every
// cell section lands in the one server (state is valid anywhere —
// fingerprints are exact and cell-independent), and sessions are recreated
// in the manager (skipped when mgr is nil).
func RestoreServer(srv *serve.Server, mgr *stream.Manager, snap Snapshot) RestoreReport {
	var rep RestoreReport
	for _, cs := range snap.Cells {
		srv.ImportState(cs.State)
		rep.Cells++
		rep.Results += len(cs.State.Results)
	}
	if mgr != nil {
		rep.Sessions = mgr.RestoreSessions(snap.Sessions)
	}
	return rep
}

// RestoreCluster imports a snapshot into a cluster: each cell section
// lands on its original cell when that ID is still a member, otherwise
// it is spread round-robin over the live cells (valid anywhere — exact
// fingerprints; a later rebalance or plain cache misses settle any
// misplacement). Sessions are recreated in the manager (skipped when mgr
// is nil).
func RestoreCluster(r *cluster.Router, mgr *stream.Manager, snap Snapshot) RestoreReport {
	var rep RestoreReport
	ids := r.CellIDs()
	next := 0
	for _, cs := range snap.Cells {
		srv, ok := r.CellServer(cs.Cell)
		if !ok {
			if len(ids) == 0 {
				continue
			}
			srv, ok = r.CellServer(ids[next%len(ids)])
			next++
			if !ok {
				continue
			}
		}
		srv.ImportState(cs.State)
		rep.Cells++
		rep.Results += len(cs.State.Results)
	}
	if mgr != nil {
		rep.Sessions = mgr.RestoreSessions(snap.Sessions)
	}
	return rep
}

// BootRestore loads the snapshot at path and hands it to restore,
// degrading every failure to a cold start: a missing file boots silently
// cold, a corrupt/truncated/version-skewed one boots cold with a WARN.
// The boolean reports whether a snapshot was actually restored. Boot
// never fails because of a snapshot.
func BootRestore(path string, log *slog.Logger, restore func(Snapshot) RestoreReport) (RestoreReport, bool) {
	if log == nil {
		log = slog.Default()
	}
	snap, err := Load(path)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Warn("snapshot restore failed, starting cold", "path", path, "err", err)
		}
		return RestoreReport{}, false
	}
	rep := restore(snap)
	log.Info("snapshot restored",
		"path", path, "saved_at", snap.SavedAt,
		"cells", rep.Cells, "results", rep.Results, "sessions", rep.Sessions)
	return rep, true
}
