package replica

import (
	"encoding/binary"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

func sampleSnapshot() Snapshot {
	return Snapshot{
		SavedAt: time.Unix(1700000000, 0).UTC(),
		Cells: []CellState{{
			Cell: 2,
			State: serve.ServerState{
				Results: []serve.CachedResult{{Key: 42, Result: core.Result{Objective: 1.5, Converged: true}}},
			},
		}},
	}
}

// preBumpSnapshot is a well-formed snapshot as the version-01 codec wrote
// it: FLSNAP01 envelope, valid checksum, and a payload whose cached result
// and warm seed still carry the Subproblem 2 dual state that version 02
// dropped.
func preBumpSnapshot() []byte {
	duals := `{"Mu":2.5,"Nu":[1,2],"Beta":[3,4]}`
	payload := []byte(`{"saved_at":"2023-11-14T22:13:20Z","cells":[{"cell":0,"state":{` +
		`"results":[{"key":42,"result":{"Objective":1.5,"Converged":true,"Duals":` + duals + `}}],` +
		`"warm":[{"key":7,"alloc":{"Power":[0.01,0.01],"Bandwidth":[1e6,1e6],"Freq":[1e9,1e9]},"duals":` + duals + `}]}}]}`)
	buf := make([]byte, headerLen+len(payload))
	copy(buf, "FLSNAP01")
	binary.LittleEndian.PutUint64(buf[len(snapMagic):], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[len(snapMagic)+8:], checksum(payload))
	copy(buf[headerLen:], payload)
	return buf
}

func TestCodecRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	data, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SavedAt.Equal(want.SavedAt) || len(got.Cells) != 1 || got.Cells[0].Cell != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Cells[0].State.Results[0].Key != 42 || got.Cells[0].State.Results[0].Result.Objective != 1.5 {
		t.Fatalf("payload mismatch: %+v", got.Cells[0].State.Results[0])
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":        {},
		"short header": data[:headerLen-3],
		"truncated":    data[:len(data)-5],
		"bad magic":    append([]byte("NOTASNAP"), data[len(snapMagic):]...),
		"flipped payload byte": func() []byte {
			c := append([]byte(nil), data...)
			c[headerLen+4] ^= 0xFF
			return c
		}(),
	}
	for name, buf := range cases {
		if _, err := Decode(buf); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: err %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	data, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	skewed := append([]byte("FLSNAP99"), data[len(snapMagic):]...)
	if _, err := Decode(skewed); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version-skewed decode err %v, want ErrSnapshotVersion", err)
	}
	old := preBumpSnapshot()
	if _, err := Decode(old); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("pre-bump decode err %v, want ErrSnapshotVersion", err)
	}
	// The version is the only thing wrong with it: relabeled, it decodes.
	relabeled := append([]byte(snapMagic), old[len(snapMagic):]...)
	if _, err := Decode(relabeled); err != nil {
		t.Fatalf("relabeled pre-bump snapshot: %v", err)
	}
}

// FuzzDecode feeds the snapshot decoder arbitrary bytes: it must never
// panic, and every rejection must be typed — ErrSnapshotVersion for a
// recognizable snapshot of another codec version, ErrSnapshotCorrupt for a
// truncated, checksum-failing or unparsable one. A buffer it accepts must
// re-encode to one that decodes again.
func FuzzDecode(f *testing.F) {
	good, err := Encode(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	old := preBumpSnapshot()
	withWarm, err := os.ReadFile(filepath.Join("testdata", "flsnap02_warm.snap"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		good, old, withWarm,
		good[:headerLen], good[:len(good)-1], old[:len(old)/2],
		{}, []byte(snapMagic),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrSnapshotVersion) && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		again, err := Encode(snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if _, err := Decode(again); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
	})
}

func TestSaveLoadAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "state.snap")
	want := sampleSnapshot()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SavedAt.Equal(want.SavedAt) {
		t.Fatalf("loaded SavedAt %v, want %v", got.SavedAt, want.SavedAt)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want just the snapshot: %v", len(entries), entries)
	}
}

// TestBootRestoreDegradesToColdStart is the never-fail-boot contract: a
// missing, truncated, corrupt or version-skewed snapshot file — including
// a well-formed one from the pre-bump codec — must all come back as a clean
// cold start, with the restore callback untouched.
func TestBootRestoreDegradesToColdStart(t *testing.T) {
	dir := t.TempDir()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	good, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}

	files := map[string][]byte{
		"missing.snap":   nil, // not written at all
		"empty.snap":     {},
		"truncated.snap": good[:len(good)-7],
		"corrupt.snap": func() []byte {
			c := append([]byte(nil), good...)
			c[headerLen] ^= 0x55
			return c
		}(),
		"version.snap":  append([]byte("FLSNAP77"), good[len(snapMagic):]...),
		"pre-bump.snap": preBumpSnapshot(),
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if content != nil {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		called := false
		rep, ok := BootRestore(path, log, func(Snapshot) RestoreReport {
			called = true
			return RestoreReport{Cells: 1}
		})
		if ok || called || rep.Cells != 0 {
			t.Errorf("%s: restore ran (ok=%t called=%t rep=%+v), want cold start", name, ok, called, rep)
		}
	}

	// And the healthy path restores.
	path := filepath.Join(dir, "good.snap")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, ok := BootRestore(path, log, func(Snapshot) RestoreReport { return RestoreReport{Cells: 1} })
	if !ok || rep.Cells != 1 {
		t.Fatalf("good snapshot: ok=%t rep=%+v, want restored", ok, rep)
	}
}
