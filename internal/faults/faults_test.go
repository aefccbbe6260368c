package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	Reset()
	if err := Hit(PartitionBuild); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
	Check(PartitionBuild) // must not panic
}

func TestErrorFiresOnNthHitOnce(t *testing.T) {
	defer Reset()
	Arm(DDMRefresh, Plan{Kind: KindError, N: 3})
	for i := 1; i <= 5; i++ {
		err := Hit(DDMRefresh)
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Errorf("injected error does not wrap ErrInjected: %v", err)
			}
			if SiteOf(err) != DDMRefresh {
				t.Errorf("SiteOf = %q", SiteOf(err))
			}
		}
	}
}

func TestPanicCarriesInjection(t *testing.T) {
	defer Reset()
	Arm(EngineWorker, Plan{Kind: KindPanic})
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("no panic")
		}
		if SiteOf(rec) != EngineWorker {
			t.Errorf("SiteOf(%v) = %q", rec, SiteOf(rec))
		}
	}()
	Check(EngineWorker)
}

func TestCheckPanicsOnInjectedError(t *testing.T) {
	defer Reset()
	Arm(SamplingRun, Plan{Kind: KindError})
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("Check swallowed the injected error")
		}
		err, ok := rec.(error)
		if !ok || !errors.Is(err, ErrInjected) {
			t.Errorf("panic value %v does not wrap ErrInjected", rec)
		}
	}()
	Check(SamplingRun)
}

func TestDelaySleepsAndProceeds(t *testing.T) {
	defer Reset()
	Arm(DDMRefresh, Plan{Kind: KindDelay, Delay: 20 * time.Millisecond})
	t0 := time.Now()
	if err := Hit(DDMRefresh); err != nil {
		t.Fatalf("delay hit returned %v", err)
	}
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Errorf("delay hit returned after %v", d)
	}
	if err := Hit(DDMRefresh); err != nil {
		t.Fatalf("post-fire hit returned %v", err)
	}
}

func TestDisarmRestoresNilFastPath(t *testing.T) {
	disarm := Arm(PartitionBuild, Plan{Kind: KindError, N: 100})
	if active.Load() == nil {
		t.Fatal("registry not installed")
	}
	disarm()
	if active.Load() != nil {
		t.Fatal("registry not retired after last disarm")
	}
}

func TestConcurrentHitsFireExactlyOnce(t *testing.T) {
	defer Reset()
	Arm(EngineWorker, Plan{Kind: KindError, N: 50})
	var fired int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Hit(EngineWorker) != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("plan fired %d times, want 1", fired)
	}
}

func TestSitesStable(t *testing.T) {
	s := Sites()
	if len(s) != 7 || s[0] != PartitionBuild || s[6] != TopKPrune {
		t.Fatalf("Sites() = %v", s)
	}
}
