package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
)

func TestPanicErrorFields(t *testing.T) {
	perr := NewPanicError(string(faults.EngineWorker), "boom")
	if perr.Site != string(faults.EngineWorker) {
		t.Errorf("site = %q", perr.Site)
	}
	if perr.Value != "boom" {
		t.Errorf("value = %v", perr.Value)
	}
	if len(perr.Stack) == 0 {
		t.Error("stack not captured")
	}
	if !strings.Contains(perr.Error(), string(faults.EngineWorker)) || !strings.Contains(perr.Error(), "boom") {
		t.Errorf("message = %q", perr.Error())
	}
}

func TestPanicErrorUnwrapsErrorValues(t *testing.T) {
	sentinel := errors.New("inner failure")
	perr := NewPanicError("x", fmt.Errorf("wrapped: %w", sentinel))
	if !errors.Is(perr, sentinel) {
		t.Error("errors.Is should reach the panic value's chain")
	}
	// Non-error panic values unwrap to nil.
	if NewPanicError("x", 42).Unwrap() != nil {
		t.Error("int panic value should not unwrap")
	}
}

func TestNewPanicErrorPrefersInjectionSite(t *testing.T) {
	inj := faults.Injection{Site: faults.DDMRefresh, Kind: faults.KindPanic}
	perr := NewPanicError(string(faults.EngineWorker), inj)
	if perr.Site != string(faults.DDMRefresh) {
		t.Errorf("site = %q, want the injection's %q", perr.Site, faults.DDMRefresh)
	}
	if !errors.Is(perr, faults.ErrInjected) {
		t.Error("errors.Is(perr, faults.ErrInjected) should hold")
	}
}

// TestPoolPanicBecomesTypedError: the panic wins over a cancellation the
// failing item caused, so the caller sees the failure, not ctx's error.
func TestPoolPanicBecomesTypedError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := NewPool(4).Run(ctx, 100, func(w, i int) {
		if i == 37 {
			cancel()
			panic("worker 37 exploded")
		}
	})
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if perr.Site != string(faults.EngineWorker) {
		t.Errorf("site = %q", perr.Site)
	}
}

func TestRunStatsDegradeFirstReasonWins(t *testing.T) {
	rs := NewRunStats("test", 1)
	rs.Degrade("first reason")
	rs.Degrade("second reason")
	if !rs.Degraded || rs.DegradedReason != "first reason" {
		t.Errorf("degraded=%v reason=%q", rs.Degraded, rs.DegradedReason)
	}
	rs.Finish(nil)
	if !strings.Contains(rs.String(), "DEGRADED") || !strings.Contains(rs.String(), "first reason") {
		t.Errorf("String() = %q", rs.String())
	}
}
