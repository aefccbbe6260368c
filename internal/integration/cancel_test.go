package integration

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fdep"
	"repro/internal/hyfd"
	"repro/internal/runstate"
	"repro/internal/sampling"
	"repro/internal/tane"
)

// TestCancellationSurfacesEverywhere: every algorithm must return promptly
// with an error on a pre-cancelled context — this is what keeps the
// benchmark harness's TL runs from leaking work.
func TestCancellationSurfacesEverywhere(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	r := dataset.Random(rng, 80, 6, 3)

	if _, _, err := tane.Run(ctx, r, tane.Config{}); err == nil {
		t.Error("tane ignored cancellation")
	}
	for _, v := range []fdep.Variant{fdep.Classic, fdep.NonRedundant, fdep.Sorted} {
		if _, _, err := fdep.Run(ctx, r, v, fdep.Config{}); err == nil {
			t.Errorf("fdep %v ignored cancellation", v)
		}
	}
	if _, _, err := hyfd.Run(ctx, r, hyfd.Config{}); err == nil {
		t.Error("hyfd ignored cancellation")
	}
	if _, _, err := core.Run(ctx, r, core.Config{}); err == nil {
		t.Error("dhyfd ignored cancellation")
	}
	for _, workers := range []int{1, 2} {
		if s, err := sampling.NegativeCover(ctx, engine.NewPool(workers), r); err == nil || s != nil {
			t.Errorf("negative cover on %d workers ignored cancellation", workers)
		}
	}
}

// TestParallelCancellation: the worker pool must drain on cancellation.
func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := dataset.ByName("ncvoter")
	r := b.Generate(300, 12)
	if _, _, err := core.Run(ctx, r, core.Config{Ratio: 3, Options: runstate.Options{Workers: 4}}); err == nil {
		t.Error("parallel dhyfd ignored cancellation")
	}
}
