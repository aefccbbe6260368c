package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 33} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]atomic.Int32, n)
			err := NewPool(workers).Run(context.Background(), n, func(w, i int) {
				hits[i].Add(1)
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestPoolWorkerIndexBounded(t *testing.T) {
	p := NewPool(4)
	var bad atomic.Bool
	err := p.Run(context.Background(), 500, func(w, i int) {
		if w < 0 || w >= p.Workers() {
			bad.Store(true)
		}
	})
	if err != nil || bad.Load() {
		t.Fatalf("worker index out of [0,%d): err=%v", p.Workers(), err)
	}
}

func TestPoolRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := NewPool(4).Run(ctx, 10000, func(w, i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers may claim up to one batch each before polling.
	if got := ran.Load(); got > 4*checkEvery {
		t.Errorf("ran %d items after pre-cancel, want <= %d", got, 4*checkEvery)
	}
}

func TestPoolRunCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := NewPool(2).Run(ctx, 1_000_000, func(w, i int) {
		if ran.Add(1) == 100 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 1_000_000 {
		t.Error("cancellation did not stop the pool early")
	}
}

func TestPoolRunRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := NewPool(workers).Run(context.Background(), 100, func(w, i int) {
			if i == 42 {
				panic("boom")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError = %+v", workers, pe.Value)
		}
	}
}

// TestRetryOrganicPanicNotRetried: a panicking item runs once and ends the
// Run; the pool never re-runs it. On one worker the items run in order, so
// every item before the failing one ran exactly once and none after it
// started.
func TestRetryOrganicPanicNotRetried(t *testing.T) {
	for _, workers := range []int{1, 4} {
		calls := make([]atomic.Int32, 100)
		err := NewPool(workers).Run(context.Background(), 100, func(w, i int) {
			calls[i].Add(1)
			if i == 42 {
				panic("organic bug")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if got := calls[42].Load(); got != 1 {
			t.Errorf("workers=%d: failing item ran %d times, want 1", workers, got)
		}
		if workers > 1 {
			continue
		}
		for i := range calls {
			want := int32(0)
			if i <= 42 {
				want = 1
			}
			if got := calls[i].Load(); got != want {
				t.Errorf("workers=1: item %d ran %d times, want %d", i, got, want)
			}
		}
	}
}

func TestRunStatsPhases(t *testing.T) {
	rs := NewRunStats("test", 0)
	if rs.Workers != 1 {
		t.Errorf("workers clamp: %d", rs.Workers)
	}
	stop := rs.Phase("validate")
	time.Sleep(time.Millisecond)
	stop()
	stop = rs.Phase("validate")
	stop()
	stop = rs.Phase("induct")
	stop()
	if len(rs.Phases) != 2 {
		t.Fatalf("phases = %v, want validate+induct accumulated", rs.Phases)
	}
	if rs.PhaseDuration("validate") <= 0 {
		t.Error("validate phase has zero duration")
	}
	if rs.PhaseTotal() < rs.PhaseDuration("validate") {
		t.Error("phase total < validate phase")
	}
	rs.Count("refreshes", 2)
	rs.Count("refreshes", 1)
	if rs.Counters["refreshes"] != 3 {
		t.Errorf("counter = %d", rs.Counters["refreshes"])
	}
	rs.Finish(context.Canceled)
	if !rs.Cancelled || rs.Elapsed <= 0 {
		t.Errorf("Finish: cancelled=%v elapsed=%v", rs.Cancelled, rs.Elapsed)
	}
	if s := rs.String(); s == "" {
		t.Error("empty String()")
	}
}
