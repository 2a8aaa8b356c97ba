package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestCellFaultRetries verifies that transient CellFault errors are retried
// like simulation failures and leave the results untouched.
func TestCellFaultRetries(t *testing.T) {
	spec := tinySpec(t, 2)
	clean, err := Run(context.Background(), spec, WithWorkers(2))
	if err != nil {
		t.Fatalf("clean Run: %v", err)
	}

	var mu sync.Mutex
	firstAttempt := map[string]bool{}
	rep, err := Run(context.Background(), spec,
		WithWorkers(2),
		WithRetries(2, time.Millisecond),
		WithCellFault(func(ctx context.Context, cellID string, attempt int) error {
			mu.Lock()
			defer mu.Unlock()
			if !firstAttempt[cellID] {
				firstAttempt[cellID] = true
				return &faultinject.TransientError{Err: fmt.Errorf("injected (cell %s)", cellID)}
			}
			return nil
		}))
	if err != nil {
		t.Fatalf("faulted Run: %v", err)
	}
	if !rep.Complete() || len(rep.Failures) != 0 {
		t.Fatalf("faulted run incomplete: failures %+v", rep.Failures)
	}
	for id, want := range clean.Runs {
		got := rep.Runs[id]
		if got == nil || got.IPC() != want.IPC() {
			t.Fatalf("cell %s: results differ between clean and faulted runs", id)
		}
	}
}

// TestCellFaultPermanent verifies that a persistent fault lands in the
// failure ledger with its attempt count instead of aborting the campaign.
func TestCellFaultPermanent(t *testing.T) {
	spec := tinySpec(t, 2)
	doomed := spec.Cells[0].ID
	rep, err := Run(context.Background(), spec,
		WithWorkers(2),
		WithRetries(1, time.Millisecond),
		WithCellFault(func(ctx context.Context, cellID string, attempt int) error {
			if cellID == doomed {
				return &faultinject.TransientError{Err: errors.New("injected, always")}
			}
			return nil
		}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Complete() {
		t.Fatal("campaign reported complete despite a permanently faulted cell")
	}
	if len(rep.Failures) != 1 || rep.Failures[0].ID != doomed {
		t.Fatalf("failures = %+v, want exactly %q", rep.Failures, doomed)
	}
	if rep.Failures[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (initial + 1 retry)", rep.Failures[0].Attempts)
	}
	if rep.Simulated != 1 {
		t.Fatalf("Simulated = %d, want 1 (the healthy cell)", rep.Simulated)
	}
}
