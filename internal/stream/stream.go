// Package stream is the streaming gain-update subsystem: a session-oriented
// delta layer over the allocation service (internal/serve) and the
// multi-cell cluster (internal/cluster).
//
// The paper's allocation problem is re-solved whenever device channel gains
// drift. The plain serving path forces clients to re-POST the entire system
// even when only a few gains changed, re-paying JSON decode, full
// fingerprinting and a cold solve for what is a tiny perturbation of an
// instance the server has already solved. A stream session fixes that:
//
//   - the client opens a session with one full system; the server pins the
//     authoritative state server-side and answers with a session ID;
//   - each subsequent delta message carries only the sparse per-device gain
//     changes (plus optional weight/deadline updates) and a strictly
//     increasing sequence number;
//   - the session applies the delta to its pinned system in place,
//     re-fingerprints incrementally (gains-only deltas reuse the cached
//     topology-bucket hash and re-hash just the gains), and re-solves
//     through the backend — a cache hit only when the exact instance is
//     already cached, a cold solve otherwise. Delta solves are
//     session-private (serve.Request.Fingerprint): they never enter the
//     shared cache, because no other request carries the session's
//     instance;
//   - every update is answered with the new allocation plus solve metadata:
//     the path taken (cache/cold), iteration counts and latency.
//
// Sessions are bounded (max sessions, idle TTL) and survive cross-cell
// handoff: session state lives above the cells, deltas route by device ID
// (following the handoff pin), and the existing cluster Handoff machinery
// migrates the device's cached solutions (the session's opening instance
// among them; delta solves are neither cached nor recorded in the handoff
// history). A delta after a move re-solves cold on the new cell.
package stream

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ErrStaleSeq rejects a delta whose sequence number does not advance the
// session: regressions and replays must fail loudly, or a reordered client
// stream would silently rewind the authoritative gains.
var ErrStaleSeq = errors.New("stream: stale delta sequence number")

// ErrBadDelta rejects a malformed delta (empty, out-of-range device index,
// non-positive or non-finite value, weight/deadline update that the
// session's mode cannot consume). The session state is left untouched.
var ErrBadDelta = errors.New("stream: bad delta")

// ErrNoSession flags an unknown, closed or expired session ID.
var ErrNoSession = errors.New("stream: unknown session")

// ErrSessionLimit rejects an open when the session table is full.
var ErrSessionLimit = errors.New("stream: too many sessions")

// ErrClosed is returned for requests arriving after the manager closed.
var ErrClosed = errors.New("stream: manager closed")

// Config parameterizes a Manager. The zero value is usable.
type Config struct {
	// MaxSessions bounds the number of concurrently open sessions; opens
	// beyond it fail with ErrSessionLimit. Default 1024.
	MaxSessions int
	// IdleTTL expires sessions that have not applied a delta (or been
	// opened) for this long. Zero selects the 5-minute default; negative
	// disables expiry.
	IdleTTL time.Duration
	// SweepInterval is how often the background sweeper scans for expired
	// sessions (expiry is also checked lazily on access). Default 30s,
	// clamped to IdleTTL when that is shorter.
	SweepInterval time.Duration
	// Trace, when non-nil, gives each NDJSON delta its own lifecycle
	// trace: the HTTP middleware deliberately skips the long-lived delta
	// stream (one connection-spanning trace would be meaningless), so the
	// manager starts a per-delta trace here instead. Per-delta trace IDs
	// surface in the update lines' trace_id field. Nil disables.
	Trace *obs.Collector
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 5 * time.Minute
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 30 * time.Second
	}
	if c.IdleTTL > 0 && c.SweepInterval > c.IdleTTL {
		c.SweepInterval = c.IdleTTL
	}
	return c
}

// Delta is one sparse update to a session's authoritative system. Gains
// carries absolute replacement values (not multipliers), so re-applying a
// delta after a failed solve is idempotent.
type Delta struct {
	// Seq is the client's sequence number; it must exceed the session's
	// last applied one (gaps are allowed — clients may coalesce).
	Seq uint64
	// Gains maps device index to the device's new channel gain.
	Gains map[int]float64
	// Weights, when non-nil, replaces the objective weight pair.
	Weights *fl.Weights
	// TotalDeadline, when non-nil, replaces the deadline-mode total
	// completion time (seconds). Rejected for weighted-mode sessions.
	TotalDeadline *float64
}

// Update is the outcome of one applied delta (or of the session-opening
// solve, with Seq 0).
type Update struct {
	// SessionID identifies the session the update belongs to.
	SessionID string
	// Seq echoes the applied delta's sequence number.
	Seq uint64
	// Cell is the cell that served the re-solve (0 on a single server).
	Cell int
	// Response is the serving-layer outcome: allocation, metrics, source
	// (cache/cold), fingerprint and solve time.
	Response serve.Response
	// Elapsed is the wall time of the whole apply (validation, in-place
	// application, fingerprint, queueing and solve).
	Elapsed time.Duration
}

// Session pins one client's authoritative system state server-side. All
// methods are safe for concurrent use; deltas validate and apply to the
// authoritative state strictly in sequence order, while their re-solves
// coalesce: when several deltas queue behind a slow solve (or behind a
// drain suspension), the state absorbs all of them and ONE re-solve of the
// latest state answers them all.
type Session struct {
	id       string
	deviceID string

	mu      sync.Mutex
	cond    *sync.Cond // signals solve completion, resume and close
	sys     *fl.System // authoritative; mutated in place by deltas
	weights fl.Weights
	opts    core.Options
	solver  serve.SolverName
	// seq is the last sequence number covered by a successful re-solve;
	// pendingSeq is the last one applied to sys (>= seq — the gap is the
	// backlog a coalesced solve will cover). Validation advances on
	// pendingSeq; a failed solve rolls pendingSeq back to seq so the
	// client may retry the same number (gains are absolute, so
	// re-application is idempotent).
	seq        uint64
	pendingSeq uint64
	solving    bool   // a re-solve for this session is in flight
	suspended  bool   // drain in progress: deltas apply and queue, no solves
	topo       uint64 // cached topology-bucket hash
	hasTopo    bool
	topoDirty  bool   // weights/deadline changed since topo was computed
	lastUpd    Update // outcome of the last successful re-solve
	deltas     int64
	closed     bool

	lastUsed atomic.Int64 // unix nanoseconds
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// DeviceID returns the device the session routes as.
func (s *Session) DeviceID() string { return s.deviceID }

// Seq returns the last applied sequence number (0 before the first delta).
func (s *Session) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Deltas returns how many deltas the session has applied.
func (s *Session) Deltas() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas
}

// SystemSnapshot returns a private copy of the session's current
// authoritative system.
func (s *Session) SystemSnapshot() *fl.System {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cloneSystem(s.sys)
}

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// markClosed flags the session closed and wakes every queued delta so no
// goroutine stays parked on a session that will never solve again.
func (s *Session) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *Session) idle(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastUsed.Load()))
}

// cloneSystem copies a system deeply enough for independent mutation: the
// device slice is the only reference field.
func cloneSystem(s *fl.System) *fl.System {
	out := *s
	out.Devices = append([]fl.Device(nil), s.Devices...)
	return &out
}

// Manager owns the session table over one backend. It does not own the
// backend: closing the manager leaves the underlying server/router running.
type Manager struct {
	cfg Config
	be  Backend

	mu       sync.Mutex
	sessions map[string]*Session
	pending  int // opens holding a slot while their first solve runs
	closed   bool

	stats     Stats
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewManager builds a session manager over the backend and starts its
// expiry sweeper. Call Close to stop it.
func NewManager(be Backend, cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		be:       be,
		sessions: make(map[string]*Session),
		done:     make(chan struct{}),
	}
	if m.cfg.IdleTTL > 0 {
		m.wg.Add(1)
		go m.sweeper()
	}
	return m
}

// Close stops the sweeper and closes every session. Safe to call more than
// once. The backend is left running (the caller owns it).
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		sessions := m.sessions
		m.sessions = make(map[string]*Session)
		m.mu.Unlock()
		close(m.done)
		for _, s := range sessions {
			s.markClosed()
		}
	})
	m.wg.Wait()
}

// Len returns the number of open sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Snapshot {
	snap := m.stats.snapshot()
	m.mu.Lock()
	snap.ActiveSessions = len(m.sessions)
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		if s.suspended {
			snap.SuspendedSessions++
		}
		s.mu.Unlock()
	}
	return snap
}

// sweeper evicts idle sessions in the background so an abandoned client
// cannot hold its slot (and its pinned system) until the next access.
func (m *Manager) sweeper() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			m.mu.Lock()
			for id, s := range m.sessions {
				if s.idle(now) > m.cfg.IdleTTL {
					delete(m.sessions, id)
					m.stats.sessionsExpired.Add(1)
					s.markClosed()
				}
			}
			m.mu.Unlock()
		case <-m.done:
			return
		}
	}
}

// newSessionID draws a random 64-bit hex identifier.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("stream: drawing session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Open creates a session from a full solve request, running the opening
// solve through the backend (routed by deviceID on a cluster). The request's
// system is copied — the caller keeps ownership of its own — and any
// caller-provided Work/Fingerprint are dropped: workspaces and keys are
// the serving layer's job. On solver or validation failure no session is
// created. The returned Update carries Seq 0.
func (m *Manager) Open(ctx context.Context, deviceID string, req serve.Request) (*Session, Update, error) {
	if req.System == nil {
		return nil, Update{}, fmt.Errorf("nil system: %w", serve.ErrBadRequest)
	}
	// Reserve a slot before the (slow) opening solve so a stampede of opens
	// cannot overshoot MaxSessions while their first solves are in flight.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, Update{}, ErrClosed
	}
	if len(m.sessions)+m.pending >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.stats.sessionsRejected.Add(1)
		return nil, Update{}, fmt.Errorf("%d sessions open: %w", m.cfg.MaxSessions, ErrSessionLimit)
	}
	m.pending++
	m.mu.Unlock()
	release := func() {
		m.mu.Lock()
		m.pending--
		m.mu.Unlock()
	}

	id, err := newSessionID()
	if err != nil {
		release()
		return nil, Update{}, err
	}
	s := &Session{
		id:       id,
		deviceID: deviceID,
		sys:      cloneSystem(req.System),
		weights:  req.Weights,
		opts:     req.Options,
		solver:   req.Solver,
	}
	s.cond = sync.NewCond(&s.mu)
	s.opts.Work = nil
	s.touch()

	began := time.Now()
	// The opening solve gets a snapshot, not the live authoritative state:
	// the backend retains served systems (the cluster's handoff history
	// re-fingerprints them later), and future deltas mutate s.sys in place.
	resp, cell, err := m.be.Solve(ctx, deviceID, serve.Request{
		System:  cloneSystem(s.sys),
		Weights: s.weights,
		Options: s.opts,
		Solver:  s.solver,
	})
	if err != nil {
		release()
		return nil, Update{}, err
	}
	s.topo, s.hasTopo = resp.Fingerprint.Topo, true

	m.mu.Lock()
	m.pending--
	if m.closed {
		m.mu.Unlock()
		return nil, Update{}, ErrClosed
	}
	m.sessions[id] = s
	m.mu.Unlock()
	m.stats.sessionsOpened.Add(1)
	m.stats.countSolve(resp)
	return s, Update{SessionID: id, Seq: 0, Cell: cell, Response: resp, Elapsed: time.Since(began)}, nil
}

// lookup resolves a session ID, lazily expiring idle sessions.
func (m *Manager) lookup(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("session %q: %w", id, ErrNoSession)
	}
	if m.cfg.IdleTTL > 0 && s.idle(time.Now()) > m.cfg.IdleTTL {
		delete(m.sessions, id)
		m.stats.sessionsExpired.Add(1)
		s.markClosed()
		return nil, fmt.Errorf("session %q expired: %w", id, ErrNoSession)
	}
	return s, nil
}

// Apply validates and applies one delta to the session, then re-solves the
// updated system through the backend. Validation is all-or-nothing: a
// rejected delta (ErrStaleSeq, ErrBadDelta) leaves the session untouched.
// A delta that applies but whose solve fails keeps the applied state and
// does NOT advance the sequence number, so the client may retry the same
// delta (gains are absolute values; re-application is idempotent).
//
// Re-solves coalesce under backlog: a delta arriving while the session's
// previous re-solve is still in flight (or while a drain has the session
// suspended) applies to the authoritative state immediately and queues.
// When the in-flight solve lands, ONE re-solve of the latest state covers
// the whole queue — every queued caller gets that solve's outcome (tagged
// with its own sequence number), and the skipped per-delta solves are
// counted as coalesced in the stream stats. Order is preserved by
// construction: deltas apply in strictly increasing sequence order, and a
// covering solve always sees the newest state.
func (m *Manager) Apply(ctx context.Context, sessionID string, d Delta) (Update, error) {
	s, err := m.lookup(sessionID)
	if err != nil {
		m.stats.deltaErrors.Add(1)
		return Update{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		m.stats.deltaErrors.Add(1)
		return Update{}, fmt.Errorf("session %q: %w", sessionID, ErrNoSession)
	}
	s.touch()
	if err := s.validate(d); err != nil {
		m.stats.deltaErrors.Add(1)
		return Update{}, err
	}

	tr := obs.FromContext(ctx)
	began := time.Now()
	// Apply in place. Only a weight/deadline change moves the instance to a
	// different topology bucket; gains-only deltas keep the cached hash.
	for i, g := range d.Gains {
		s.sys.Devices[i].Gain = g
	}
	if d.Weights != nil {
		s.weights = *d.Weights
		s.topoDirty = true
	}
	if d.TotalDeadline != nil {
		s.opts.TotalDeadline = *d.TotalDeadline
		s.topoDirty = true
	}
	s.pendingSeq = d.Seq

	// Queue while a re-solve is in flight or the session is suspended for a
	// drain; the wait ends when the solve lands, the drain resumes, the
	// session closes, or the caller's context expires (the AfterFunc
	// broadcast is what turns a ctx cancellation into a wake-up — a cond
	// cannot select on a channel).
	stopCtxWake := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stopCtxWake()
	waitCause := ""
	if s.suspended {
		waitCause = "suspended"
	} else if s.solving {
		waitCause = "solve in flight"
	}
	waitBegan := time.Now()
	for (s.solving || s.suspended) && s.seq < d.Seq && !s.closed && ctx.Err() == nil {
		s.cond.Wait()
	}
	if waitCause != "" {
		tr.RecordAttr(obs.PhaseCoalesceWait, waitBegan, obs.Attr{Detail: waitCause, Value: int64(d.Seq)})
	}
	switch {
	case s.closed:
		m.stats.deltaErrors.Add(1)
		return Update{}, fmt.Errorf("session %q: %w", sessionID, ErrNoSession)
	case s.seq < d.Seq && ctx.Err() != nil:
		// Abandoned wait: the delta stays applied to the authoritative
		// state (a later covering solve absorbs it), but the sequence
		// baseline rolls back like a failed solve so the client may retry
		// the same number — unless later deltas already staged past it.
		if s.pendingSeq == d.Seq {
			s.pendingSeq = s.seq
		}
		m.stats.deltaErrors.Add(1)
		return Update{}, ctx.Err()
	case s.seq >= d.Seq:
		// Coalesced: a covering re-solve (of this seq or a later one) ran
		// while this delta was queued. Hand its outcome back, privately
		// cloned — Result is documented caller-mutable.
		m.stats.deltasCoalesced.Add(1)
		m.stats.deltas.Add(1)
		s.deltas++
		upd := s.lastUpd
		upd.Seq = d.Seq
		upd.Response = upd.Response.Clone()
		upd.Elapsed = time.Since(began)
		tr.RecordAttr(obs.PhaseDeltaApply, began, obs.Attr{Cell: upd.Cell, Detail: "coalesced", Value: int64(d.Seq)})
		return upd, nil
	}

	// Become the solver for everything staged so far. A failed solve may
	// have rolled pendingSeq below this delta's seq while it sat queued;
	// its gains are still applied (absolute values, idempotent), so the
	// covering solve must advance at least to it or a success would be
	// reported without moving the sequence, re-admitting the number later.
	if s.pendingSeq < d.Seq {
		s.pendingSeq = d.Seq
	}
	target := s.pendingSeq
	s.solving = true
	// A queued solve outlives a caller whose context ends, so each solve
	// gets an immutable snapshot rather than the live, in-place-mutated
	// authoritative state.
	req := serve.Request{
		System:  cloneSystem(s.sys),
		Weights: s.weights,
		Options: s.opts,
		Solver:  s.solver,
	}
	var fp serve.Fingerprint
	if s.hasTopo && !s.topoDirty {
		fp = serve.FingerprintGains(s.topo, req.System)
	} else {
		fp = serve.FingerprintRequest(req)
	}
	s.topo, s.hasTopo, s.topoDirty = fp.Topo, true, false
	req.Fingerprint = &fp

	s.mu.Unlock()
	resp, cell, err := m.be.Solve(ctx, s.deviceID, req)
	s.mu.Lock()
	s.solving = false
	s.cond.Broadcast()
	if err != nil {
		// Roll the validation baseline back to the last solved seq so the
		// client may retry the failed delta under the same number — unless
		// later deltas already staged beyond the failed target (their
		// staging stands; one of their callers re-solves next).
		if s.pendingSeq == target {
			s.pendingSeq = s.seq
		}
		m.stats.deltaErrors.Add(1)
		tr.RecordAttr(obs.PhaseDeltaApply, began, obs.Attr{Detail: "error: " + err.Error(), Value: int64(d.Seq)})
		return Update{}, err
	}
	if target > s.seq {
		s.seq = target
	}
	s.deltas++
	m.stats.deltas.Add(1)
	m.stats.countSolve(resp)
	s.lastUpd = Update{
		SessionID: sessionID,
		Seq:       target,
		Cell:      cell,
		Response:  resp,
		Elapsed:   time.Since(began),
	}
	upd := s.lastUpd
	upd.Seq = d.Seq
	upd.Response = upd.Response.Clone()
	upd.Elapsed = time.Since(began)
	tr.RecordAttr(obs.PhaseDeltaApply, began, obs.Attr{Cell: cell, Detail: "solved", Value: int64(target)})
	return upd, nil
}

// validate checks a delta against the session without mutating anything;
// the caller holds s.mu.
func (s *Session) validate(d Delta) error {
	if d.Seq <= s.pendingSeq {
		return fmt.Errorf("seq %d does not advance last applied %d: %w", d.Seq, s.pendingSeq, ErrStaleSeq)
	}
	if len(d.Gains) == 0 && d.Weights == nil && d.TotalDeadline == nil {
		return fmt.Errorf("empty delta: %w", ErrBadDelta)
	}
	n := s.sys.N()
	for i, g := range d.Gains {
		if i < 0 || i >= n {
			return fmt.Errorf("device index %d out of range [0,%d): %w", i, n, ErrBadDelta)
		}
		if !(g > 0) || math.IsInf(g, 0) {
			return fmt.Errorf("device %d gain %g must be positive and finite: %w", i, g, ErrBadDelta)
		}
	}
	if d.Weights != nil {
		if err := d.Weights.Check(); err != nil {
			return fmt.Errorf("%v: %w", err, ErrBadDelta)
		}
	}
	if d.TotalDeadline != nil {
		if s.opts.Mode != core.ModeDeadline {
			return fmt.Errorf("total deadline update on a weighted-mode session: %w", ErrBadDelta)
		}
		if !(*d.TotalDeadline > 0) || math.IsInf(*d.TotalDeadline, 0) {
			return fmt.Errorf("total deadline %g must be positive and finite: %w", *d.TotalDeadline, ErrBadDelta)
		}
	}
	return nil
}

// SessionDevices returns the device ID of every open session (duplicates
// collapsed, sessions without a device skipped). Control planes use it to
// find the sessions a membership change is about to move.
func (m *Manager) SessionDevices() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[string]bool, len(m.sessions))
	var devs []string
	for _, s := range m.sessions {
		if s.deviceID == "" || seen[s.deviceID] {
			continue
		}
		seen[s.deviceID] = true
		devs = append(devs, s.deviceID)
	}
	return devs
}

// SuspendDevices pauses the re-solve path of every open session owned by
// one of the given devices, and returns how many sessions it suspended.
// While suspended, deltas keep validating and applying to the
// authoritative state in sequence order — so a drain never surfaces
// ErrStaleSeq to a client — but they queue instead of solving.
// SuspendDevices blocks until no suspended session has a solve in flight,
// so on return the backend state of those devices is quiescent and safe to
// migrate. Pair with ResumeDevices.
func (m *Manager) SuspendDevices(devices map[string]bool) int {
	n := 0
	for _, s := range m.byDevices(devices) {
		s.mu.Lock()
		if !s.closed {
			s.suspended = true
			n++
			for s.solving {
				s.cond.Wait()
			}
		}
		s.mu.Unlock()
	}
	return n
}

// ResumeDevices lifts a SuspendDevices suspension: every queued delta
// wakes, the backlog coalesces, and one re-solve of the latest state (on
// the post-migration cell, reached through the usual device routing)
// answers the whole queue. Returns how many sessions it resumed.
func (m *Manager) ResumeDevices(devices map[string]bool) int {
	n := 0
	for _, s := range m.byDevices(devices) {
		s.mu.Lock()
		if s.suspended {
			s.suspended = false
			n++
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
	return n
}

// byDevices snapshots the open sessions owned by the given devices.
func (m *Manager) byDevices(devices map[string]bool) []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Session
	for _, s := range m.sessions {
		if devices[s.deviceID] {
			out = append(out, s)
		}
	}
	return out
}

// CloseSummary reports a closed session's final state.
type CloseSummary struct {
	SessionID string `json:"session_id"`
	// LastSeq is the last applied sequence number.
	LastSeq uint64 `json:"last_seq"`
	// Deltas is how many deltas the session applied.
	Deltas int64 `json:"deltas_applied"`
}

// CloseSession removes a session, returning its final counters.
func (m *Manager) CloseSession(id string) (CloseSummary, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return CloseSummary{}, ErrClosed
	}
	if !ok {
		return CloseSummary{}, fmt.Errorf("session %q: %w", id, ErrNoSession)
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	sum := CloseSummary{SessionID: id, LastSeq: s.seq, Deltas: s.deltas}
	s.mu.Unlock()
	m.stats.sessionsClosed.Add(1)
	return sum, nil
}
