package ranking

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
)

// An injected panic at the ranking.run site must surface as a typed
// *engine.PanicError attributed to the site — never a crashed process —
// with the partial result intact, on both the serial and parallel paths.
func TestRankingRunFaultInjection(t *testing.T) {
	b, err := dataset.ByName("echo")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(120, 10)
	can := cover.Canonical(r.NumCols(), discover(r))
	if len(can) < 3 {
		t.Fatalf("cover too small: %d", len(can))
	}

	for _, workers := range []int{1, 4} {
		for _, entry := range []string{"rank", "totals"} {
			t.Run(entry, func(t *testing.T) {
				t.Cleanup(faults.Arm(faults.RankingRun, faults.Plan{Kind: faults.KindPanic, N: 2}))
				var err error
				switch entry {
				case "rank":
					var out []Ranked
					out, _, err = RankCtx(context.Background(), r, can, Config{Workers: workers})
					if len(out) != len(can) {
						t.Errorf("partial result has %d entries, want %d", len(out), len(can))
					}
				case "totals":
					_, _, err = TotalsCtx(context.Background(), r, can, Config{Workers: workers})
				}
				if err == nil {
					t.Fatal("injected panic did not surface as an error")
				}
				var pe *engine.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v (%T), want *engine.PanicError", err, err)
				}
				if pe.Site != string(faults.RankingRun) {
					t.Errorf("Site = %q, want %q", pe.Site, faults.RankingRun)
				}
				if !errors.Is(err, faults.ErrInjected) {
					t.Errorf("errors.Is(err, ErrInjected) = false")
				}
				if faults.Armed(faults.RankingRun) {
					t.Error("plan still armed after firing")
				}
			})
		}
	}
}

// Cancellation mid-run returns ctx.Err() with whatever was scored.
func TestRankingCtxCancel(t *testing.T) {
	b, err := dataset.ByName("echo")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(120, 10)
	can := cover.Canonical(r.NumCols(), discover(r))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RankCtx(ctx, r, can, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
