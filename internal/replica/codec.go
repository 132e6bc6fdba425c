// Package replica is the durability layer over the serving stack: it
// makes the expensive state a process accumulates — cached solutions and
// pinned stream sessions — survive a restart.
//
// Snapshot/restore (Snapshotter) serializes every cell's solution cache
// and every open stream session to one versioned, checksummed file on a
// ticker and on graceful shutdown (atomic rename — a crash mid-write
// leaves the previous snapshot intact). A restarted process restores it
// at boot, so post-restart replays are cache hits and clients resume
// their sessions at the next sequence number without ever seeing
// ErrStaleSeq. A corrupt, truncated or version-skewed file degrades to a
// cold start — never a failed boot.
package replica

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
)

// ErrSnapshotVersion flags a snapshot written by an incompatible codec
// version: the file is a recognizable snapshot, but its payload layout is
// not ours to parse. Restore falls back to a cold start.
var ErrSnapshotVersion = errors.New("replica: snapshot version mismatch")

// ErrSnapshotCorrupt flags a snapshot that fails structural validation:
// missing magic, truncated envelope, or checksum mismatch. Restore falls
// back to a cold start.
var ErrSnapshotCorrupt = errors.New("replica: snapshot corrupt")

// The envelope: an 8-byte magic whose trailing digits carry the codec
// version, an 8-byte little-endian payload length, an 8-byte FNV-1a
// checksum of the payload, then the JSON payload itself. Magic-with-
// version keeps the two failure modes distinguishable: a file whose
// prefix matches but whose version digits differ is ErrSnapshotVersion;
// anything else malformed is ErrSnapshotCorrupt. Version 02 dropped the
// Subproblem 2 dual state from cached results. A version 02 file written
// while the serving layer still kept a warm-start index carries a "warm"
// section in each cell's state; the JSON decode ignores it.
const (
	snapMagic       = "FLSNAP02"
	snapMagicPrefix = "FLSNAP"
	headerLen       = len(snapMagic) + 8 + 8
)

// CellState pairs one cell's serializable hot state with its ID, so a
// restored cluster can land each cell's state back where it was (or
// spread it over the live cells when the membership changed).
type CellState struct {
	Cell  int               `json:"cell"`
	State serve.ServerState `json:"state"`
}

// Snapshot is the full durable state of one serving process: every
// cell's solution cache plus every open stream session.
type Snapshot struct {
	// SavedAt is when the snapshot was captured.
	SavedAt time.Time `json:"saved_at"`
	// Cells holds each live cell's state (one entry, cell 0, for a
	// single-server flserved process).
	Cells []CellState `json:"cells,omitempty"`
	// Sessions holds every open stream session.
	Sessions []stream.SessionSnapshot `json:"sessions,omitempty"`
}

// Encode serializes a snapshot into the versioned, checksummed envelope.
func Encode(snap Snapshot) ([]byte, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("replica: encoding snapshot: %w", err)
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint64(buf[len(snapMagic):], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[len(snapMagic)+8:], checksum(payload))
	copy(buf[headerLen:], payload)
	return buf, nil
}

// Decode validates the envelope and unmarshals the payload. Version skew
// answers ErrSnapshotVersion; a short, unrecognizable or checksum-failing
// buffer answers ErrSnapshotCorrupt.
func Decode(data []byte) (Snapshot, error) {
	var snap Snapshot
	if len(data) < headerLen {
		return snap, fmt.Errorf("%d bytes is shorter than the %d-byte header: %w", len(data), headerLen, ErrSnapshotCorrupt)
	}
	magic := string(data[:len(snapMagic)])
	if magic != snapMagic {
		if len(magic) >= len(snapMagicPrefix) && magic[:len(snapMagicPrefix)] == snapMagicPrefix {
			return snap, fmt.Errorf("snapshot written by codec %q, this build reads %q: %w", magic, snapMagic, ErrSnapshotVersion)
		}
		return snap, fmt.Errorf("bad magic %q: %w", magic, ErrSnapshotCorrupt)
	}
	size := binary.LittleEndian.Uint64(data[len(snapMagic):])
	sum := binary.LittleEndian.Uint64(data[len(snapMagic)+8:])
	payload := data[headerLen:]
	if uint64(len(payload)) != size {
		return snap, fmt.Errorf("payload %d bytes, header says %d (truncated?): %w", len(payload), size, ErrSnapshotCorrupt)
	}
	if checksum(payload) != sum {
		return snap, fmt.Errorf("checksum mismatch: %w", ErrSnapshotCorrupt)
	}
	if err := json.Unmarshal(payload, &snap); err != nil {
		return snap, fmt.Errorf("payload passes checksum but fails to parse: %v: %w", err, ErrSnapshotCorrupt)
	}
	return snap, nil
}

// Save writes a snapshot to path atomically: encode, write to a temp
// file in the same directory, fsync, rename. A crash at any point leaves
// either the old snapshot or the new one — never a torn file.
func Save(path string, snap Snapshot) error {
	data, err := Encode(snap)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("replica: creating snapshot dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("replica: creating temp snapshot: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("replica: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("replica: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("replica: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("replica: installing snapshot: %w", err)
	}
	return nil
}

// Load reads and decodes the snapshot at path. A missing file is the
// caller's os.IsNotExist to check; corruption and version skew come back
// as the typed sentinel errors.
func Load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	return Decode(data)
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(payload)
	return h.Sum64()
}
