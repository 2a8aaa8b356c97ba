package campaign

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestEventStream pins the event contract on the local backend: a totally
// ordered stream with the right lifecycle per cell, cache hits reported as
// such on a warm re-run, and dispatch in spec order.
func TestEventStream(t *testing.T) {
	spec := tinySpec(t, 2)
	dir := t.TempDir()
	var mu sync.Mutex
	var events []Event
	collect := func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	if _, err := Run(context.Background(), spec, WithWorkers(2), WithCache(dir), WithEvents(collect)); err != nil {
		t.Fatal(err)
	}

	byCell := map[string][]EventKind{}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d; want a gapless total order", i, ev.Seq)
		}
		byCell[ev.Cell] = append(byCell[ev.Cell], ev.Kind)
	}
	for _, c := range spec.Cells {
		kinds := byCell[c.ID]
		if len(kinds) != 2 || kinds[0] != EventCellStarted || kinds[1] != EventCellCompleted {
			t.Fatalf("cell %s events = %v, want [started completed]", c.ID, kinds)
		}
	}

	events = nil
	if _, err := Run(context.Background(), spec, WithWorkers(2), WithCache(dir), WithEvents(collect)); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(spec.Cells) {
		t.Fatalf("warm run emitted %d events, want %d", len(events), len(spec.Cells))
	}
	for _, ev := range events {
		if ev.Kind != EventCellCached {
			t.Fatalf("warm run emitted %s for %s, want %s", ev.Kind, ev.Cell, EventCellCached)
		}
	}

	// Progress is a count over the stream: every cell retires with exactly
	// one terminal event, and the terminal counts by kind are the report's
	// accounting. One cell each is cached, simulated and failed.
	t.Run("terminal-per-cell", func(t *testing.T) {
		spec := tinySpec(t, 3)
		cached, doomed := spec.Cells[0], spec.Cells[2].ID
		dir := t.TempDir()
		if _, err := Run(context.Background(), Spec{Cells: []Cell{cached}}, WithCache(dir)); err != nil {
			t.Fatal(err)
		}
		var events []Event
		rep, err := Run(context.Background(), spec, WithWorkers(2), WithCache(dir),
			WithCellFault(func(_ context.Context, id string, _ int) error {
				if id == doomed {
					return errors.New("injected, permanent")
				}
				return nil
			}),
			WithEvents(func(ev Event) { events = append(events, ev) }))
		if err != nil {
			t.Fatal(err)
		}
		terminal := map[EventKind]int{}
		perCell := map[string]int{}
		for i, ev := range events {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d; want a gapless total order", i, ev.Seq)
			}
			switch ev.Kind {
			case EventCellCompleted, EventCellCached, EventCellFailed:
				terminal[ev.Kind]++
				perCell[ev.Cell]++
			}
		}
		for _, c := range spec.Cells {
			if perCell[c.ID] != 1 {
				t.Fatalf("cell %s retired with %d terminal events, want 1", c.ID, perCell[c.ID])
			}
		}
		want := map[EventKind]int{
			EventCellCompleted: rep.Simulated, EventCellCached: rep.CacheHits,
			EventCellFailed: len(rep.Failures),
		}
		for kind, n := range want {
			if terminal[kind] != n || n != 1 {
				t.Fatalf("%s events = %d, report counts %d; want 1 each (terminal %v)", kind, terminal[kind], n, terminal)
			}
		}
		if done := len(perCell); done != rep.Total {
			t.Fatalf("final done = %d, want Total %d", done, rep.Total)
		}
	})

	// Spec order is the scheduling order: one worker starts the cells
	// exactly in spec order.
	t.Run("spec-order", func(t *testing.T) {
		spec := tinySpec(t, 4)
		var started []string
		rep, err := Run(context.Background(), spec, WithWorkers(1),
			WithEvents(func(ev Event) {
				if ev.Kind == EventCellStarted {
					started = append(started, ev.Cell)
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete() {
			t.Fatalf("campaign incomplete: %v", rep.Failures)
		}
		if len(started) != len(spec.Cells) {
			t.Fatalf("started %d cells, want %d", len(started), len(spec.Cells))
		}
		for i, c := range spec.Cells {
			if started[i] != c.ID {
				t.Fatalf("dispatch order %v, want spec order", started)
			}
		}
	})
}
