package cluster

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fl"
	"repro/internal/serve"
)

// massDev is one migrating device of the equivalence test.
type massDev struct {
	id  string
	sys *fl.System
}

// TestMassHandoffMatchesPerDeviceHandoff migrates the same device
// population once through the batched path and once through a sequential
// per-device Handoff loop (on a twin router) and checks both leave the
// cluster in the same state: destination cache hits, sources emptied.
func TestMassHandoffMatchesPerDeviceHandoff(t *testing.T) {
	const devices = 12
	batched := testRouter(t, 3)
	loop := testRouter(t, 3)

	states := make([]*massDev, devices)
	var moves []Move
	for d := range states {
		st := &massDev{id: devName(d), sys: testSystem(t, 5, int64(700+d))}
		states[d] = st
		for _, r := range []*Router{batched, loop} {
			if _, _, err := r.Solve(context.Background(), d%3, st.id, serve.Request{System: st.sys, Weights: balanced()}); err != nil {
				t.Fatal(err)
			}
		}
		moves = append(moves, Move{DeviceID: st.id, To: (d%3 + 1) % 3})
	}

	rep, err := batched.MassHandoff(context.Background(), moves, true)
	if err != nil {
		t.Fatal(err)
	}
	for d, mv := range moves {
		if _, err := loop.Handoff(context.Background(), mv.DeviceID, d%3, mv.To); err != nil {
			t.Fatal(err)
		}
	}

	if rep.Moves != devices || rep.Devices != devices || rep.Instances != devices {
		t.Fatalf("mass report %+v, want %d moves/devices/instances", rep, devices)
	}
	if rep.MigratedResults != devices {
		t.Fatalf("mass report migrated %d results, want %d", rep.MigratedResults, devices)
	}

	// Each cell lost its 4 resident entries and received the 4 incoming
	// ones — migration moves cache entries, it never duplicates them.
	for c := 0; c < 3; c++ {
		if got := batched.Cell(c).Stats().CacheEntries; got != devices/3 {
			t.Fatalf("cell %d holds %d cache entries after mass handoff, want %d", c, got, devices/3)
		}
	}

	for d, st := range states {
		to := (d%3 + 1) % 3
		for name, r := range map[string]*Router{"batched": batched, "loop": loop} {
			if got := r.Route(st.id); got != to {
				t.Fatalf("%s: device %s routes to %d, want pinned %d", name, st.id, got, to)
			}
			// Exact replay: cache hit at the destination.
			resp, cell, err := r.Solve(context.Background(), CellAuto, st.id, serve.Request{System: st.sys, Weights: balanced()})
			if err != nil {
				t.Fatal(err)
			}
			if cell != to || resp.Source != serve.SourceCache {
				t.Fatalf("%s: device %s replay cell %d source %q, want %d/cache", name, st.id, cell, resp.Source, to)
			}
		}
	}

}

// TestMassHandoffPinSemantics checks the two routing modes: pin=true
// captures the devices at the destination, pin=false returns them to hash
// routing.
func TestMassHandoffPinSemantics(t *testing.T) {
	r := testRouter(t, 2)
	s := testSystem(t, 5, 800)
	const dev = "ue-pin-mode"
	if _, _, err := r.Solve(context.Background(), CellAuto, dev, serve.Request{System: s, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	owner := r.Route(dev)
	other := 1 - owner

	if _, err := r.MassHandoff(context.Background(), []Move{{DeviceID: dev, To: other}}, true); err != nil {
		t.Fatal(err)
	}
	if got := r.Route(dev); got != other {
		t.Fatalf("pin=true: route %d, want %d", got, other)
	}

	// pin=false back to the ring owner: the pin clears, hashing rules again.
	if _, err := r.MassHandoff(context.Background(), []Move{{DeviceID: dev, To: owner}}, false); err != nil {
		t.Fatal(err)
	}
	if got := r.Route(dev); got != owner {
		t.Fatalf("pin=false: route %d, want ring owner %d", got, owner)
	}
	if st := r.Stats(); st.Aggregate.PinnedDevices != 0 {
		t.Fatalf("%d pinned devices after pin=false, want 0", st.Aggregate.PinnedDevices)
	}
}

// TestMassHandoffValidation: unknown destinations and empty device IDs
// fail the whole batch before anything moves.
func TestMassHandoffValidation(t *testing.T) {
	r := testRouter(t, 2)
	s := testSystem(t, 5, 810)
	if _, _, err := r.Solve(context.Background(), 0, "ue-keep", serve.Request{System: s, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	var uc UnknownCellError
	if _, err := r.MassHandoff(context.Background(), []Move{{DeviceID: "ue-keep", To: 1}, {DeviceID: "x", To: 9}}, true); !errors.As(err, &uc) || uc.Cell != 9 {
		t.Fatalf("err = %v, want UnknownCellError{9}", err)
	}
	if _, err := r.MassHandoff(context.Background(), []Move{{DeviceID: "", To: 1}}, true); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("err = %v, want ErrNoDevice", err)
	}
	// Nothing moved: the replay still hits in cell 0.
	resp, cell, err := r.Solve(context.Background(), CellAuto, "ue-keep", serve.Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if cell != 0 || resp.Source != serve.SourceCache {
		t.Fatalf("after failed batch: cell %d source %q, want 0/cache", cell, resp.Source)
	}
}

// TestMassHandoffRecordsAtDestinationUntouched: records already living on
// the destination are skipped (no instances counted, nothing re-injected).
func TestMassHandoffRecordsAtDestinationUntouched(t *testing.T) {
	r := testRouter(t, 2)
	s := testSystem(t, 5, 820)
	const dev = "ue-already-home"
	if _, _, err := r.Solve(context.Background(), 1, dev, serve.Request{System: s, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.MassHandoff(context.Background(), []Move{{DeviceID: dev, To: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances != 0 || rep.Devices != 0 || rep.MigratedResults != 0 {
		t.Fatalf("report %+v, want all-zero for an already-home device", rep)
	}
}

func devName(d int) string { return "ue-mass-" + string(rune('a'+d)) }
