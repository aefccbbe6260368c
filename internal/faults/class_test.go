package faults

import (
	"errors"
	"fmt"
	"testing"
)

func TestEverySiteIsClassified(t *testing.T) {
	for _, site := range Sites() {
		if c := DefaultClass(site); c == ClassUnknown {
			t.Errorf("site %s has no default class", site)
		}
	}
	if DefaultClass(Site("made.up")) != ClassUnknown {
		t.Error("unknown site classified")
	}
}

func TestTaxonomy(t *testing.T) {
	// partition.build and partition.refineshard are the deterministic
	// sites: a genuine failure there reproduces on every retry.
	for _, site := range []Site{PartitionBuild, PartitionRefineShard} {
		if DefaultClass(site) != ClassFatal {
			t.Errorf("%s should be fatal", site)
		}
	}
	for _, site := range []Site{DDMRefresh, EngineWorker, SamplingRun, RankingRun, TopKPrune} {
		if DefaultClass(site) != ClassTransient {
			t.Errorf("%s should be transient", site)
		}
	}
}

func TestInjectionCarriesResolvedClass(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		defer Reset()
		Arm(EngineWorker, Plan{Kind: KindError, N: 1})
		err := Hit(EngineWorker)
		if err == nil {
			t.Fatal("armed error plan did not fire")
		}
		if got := ClassOf(err); got != ClassTransient {
			t.Fatalf("ClassOf = %v, want the site default (transient)", got)
		}
	})
	t.Run("override", func(t *testing.T) {
		defer Reset()
		Arm(EngineWorker, Plan{Kind: KindError, N: 1, Class: ClassFatal})
		err := Hit(EngineWorker)
		if got := ClassOf(err); got != ClassFatal {
			t.Fatalf("ClassOf = %v, want the plan override (fatal)", got)
		}
	})
	t.Run("panic-value", func(t *testing.T) {
		defer Reset()
		Arm(PartitionBuild, Plan{Kind: KindPanic, N: 1})
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("armed panic plan did not fire")
			}
			if got := ClassOf(rec); got != ClassFatal {
				t.Fatalf("ClassOf(panic value) = %v, want fatal", got)
			}
		}()
		Check(PartitionBuild)
	})
}

func TestClassOfForeignValues(t *testing.T) {
	if ClassOf("some organic panic") != ClassUnknown {
		t.Error("foreign panic value classified")
	}
	if ClassOf(errors.New("plain error")) != ClassUnknown {
		t.Error("plain error classified")
	}
	// Wrapped injections classify through the chain.
	inj := Injection{Site: SamplingRun, Kind: KindError, Class: ClassTransient}
	if ClassOf(fmt.Errorf("outer: %w", inj)) != ClassTransient {
		t.Error("wrapped injection lost its class")
	}
}
