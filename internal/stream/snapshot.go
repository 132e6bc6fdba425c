package stream

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/serve"
)

// This file is the session half of the durable-state story: a Manager can
// export every open session to a serializable form and a restarted
// process can restore them under the SAME IDs and sequence baselines, so
// a client that was at seq N before the restart continues at N+1 without
// ever seeing ErrStaleSeq.

// SessionSnapshot is one open session's serializable state: everything
// needed to recreate it after a restart. The snapshot is taken at the
// session's last SOLVED sequence number — deltas applied but not yet
// covered by a solve are not staged into the snapshot (their gains are
// absolute values; the client retries them idempotently).
type SessionSnapshot struct {
	ID       string           `json:"id"`
	DeviceID string           `json:"device_id,omitempty"`
	System   *fl.System       `json:"system"`
	Weights  fl.Weights       `json:"weights"`
	Options  core.Options     `json:"options"`
	Solver   serve.SolverName `json:"solver,omitempty"`
	Seq      uint64           `json:"seq"`
	Deltas   int64            `json:"deltas"`
}

// ExportSessions snapshots every open session. Each session is captured
// under its own lock at a consistent point: the authoritative system as
// of the last applied delta, with the sequence baseline at the last
// SOLVED seq — a restore therefore re-admits any delta numbers that were
// applied but never solved, which is exactly the retry contract a failed
// solve already gives clients.
func (m *Manager) ExportSessions() []SessionSnapshot {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	out := make([]SessionSnapshot, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			continue
		}
		snap := SessionSnapshot{
			ID:       s.id,
			DeviceID: s.deviceID,
			System:   cloneSystem(s.sys),
			Weights:  s.weights,
			Options:  s.opts,
			Solver:   s.solver,
			Seq:      s.seq,
			Deltas:   s.deltas,
		}
		s.mu.Unlock()
		// Workspaces are the serving layer's job, and never serializable
		// anyway.
		snap.Options.Work, snap.Options.Trace = nil, nil
		out = append(out, snap)
	}
	return out
}

// RestoreSessions recreates sessions from snapshots under their original
// IDs. No opening solve runs — the restored cluster's caches are seeded
// separately (by the snapshot's server state) and the first delta after
// the restart re-solves through the normal path. The topology hash is
// deliberately NOT restored: the first delta re-fingerprints the full
// request once, then incremental hashing resumes. Snapshots whose ID is
// already open are skipped (restore into a live manager must not clobber
// newer state); the returned count is how many sessions were actually
// restored. Restores beyond MaxSessions are dropped.
func (m *Manager) RestoreSessions(snaps []SessionSnapshot) int {
	n := 0
	for _, snap := range snaps {
		if snap.ID == "" || snap.System == nil {
			continue
		}
		s := &Session{
			id:       snap.ID,
			deviceID: snap.DeviceID,
			sys:      cloneSystem(snap.System),
			weights:  snap.Weights,
			opts:     snap.Options,
			solver:   snap.Solver,
			seq:      snap.Seq,
			// Validation advances on pendingSeq: restoring it to the solved
			// baseline re-admits exactly the numbers a failed solve would.
			pendingSeq: snap.Seq,
			deltas:     snap.Deltas,
		}
		s.cond = sync.NewCond(&s.mu)
		s.opts.Work, s.opts.Trace = nil, nil
		s.touch()
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return n
		}
		if _, exists := m.sessions[snap.ID]; exists || len(m.sessions)+m.pending >= m.cfg.MaxSessions {
			m.mu.Unlock()
			continue
		}
		m.sessions[snap.ID] = s
		m.mu.Unlock()
		m.stats.sessionsRestored.Add(1)
		n++
	}
	return n
}
