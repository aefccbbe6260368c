package hyfd

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sampling"
)

func samplerFor(t *testing.T, cols [][]int32) (*sampler, *relation.Relation) {
	t.Helper()
	r := relation.FromCodes(nil, cols, nil, relation.NullEqNull)
	plis := make([]*partition.Partition, r.NumCols())
	for c := range plis {
		plis[c] = partition.Single(r.Cols[c], r.Cards[c])
	}
	return newSampler(context.Background(), engine.NewPool(1), r, sampling.NewRowOrder(r), plis, Config{}), r
}

func TestSamplerMarksUniqueColumnsExhausted(t *testing.T) {
	s, _ := samplerFor(t, [][]int32{
		{0, 1, 2, 3}, // unique: no cluster to sample from
		{0, 0, 1, 1},
	})
	if !s.runs[0].Exhausted {
		t.Error("unique column should start exhausted")
	}
	if s.runs[1].Exhausted {
		t.Error("clustered column should be sampleable")
	}
	if !s.alive() {
		t.Error("sampler with one live run should be alive")
	}
}

func TestSamplerStepPicksBestEfficiency(t *testing.T) {
	s, _ := samplerFor(t, [][]int32{
		{0, 0, 0, 0}, // big cluster: much to find
		{0, 0, 1, 1},
	})
	s.runs[0].Efficiency = 0.9
	s.runs[1].Efficiency = 0.1
	dst := sampling.NewNonFDSet(2)
	_, _, ran, err := s.step(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("step did not run")
	}
	// Column 0 must have been chosen: its distance advanced.
	if s.runs[0].Distance != 2 || s.runs[1].Distance != 1 {
		t.Errorf("distances = %d/%d, want 2/1", s.runs[0].Distance, s.runs[1].Distance)
	}
}

func TestSamplerExhaustsEventually(t *testing.T) {
	s, _ := samplerFor(t, [][]int32{
		{0, 0, 1, 1},
		{0, 1, 0, 1},
	})
	dst := sampling.NewNonFDSet(2)
	steps := 0
	for {
		_, _, ran, err := s.step(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			break
		}
		steps++
		if steps > 100 {
			t.Fatal("sampler never exhausts")
		}
	}
	if s.alive() {
		t.Error("sampler should be dead after exhaustion")
	}
	// Cluster size 2: window 1 works once per cluster, window 2 finds
	// nothing and exhausts — a handful of steps in total.
	if steps < 2 {
		t.Errorf("steps = %d, want at least one per column", steps)
	}
}

func TestSamplerPhaseRespectsThreshold(t *testing.T) {
	s, _ := samplerFor(t, [][]int32{
		make([]int32, 64), // one constant column: a 64-row cluster
		{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1},
	})
	var st stats
	dst := sampling.NewNonFDSet(2)
	setThresholds(t, invalidSwitchRatio, 1e9) // nothing is efficient enough
	if err := s.phase(dst, &st); err != nil {
		t.Fatal(err)
	}
	if st.samplingRounds != 1 {
		t.Errorf("phase must execute exactly one run under an impossible threshold, got %d", st.samplingRounds)
	}
}
