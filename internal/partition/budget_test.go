package partition

import (
	"strings"
	"sync"
	"testing"
)

func budgetTestPartition() *Partition {
	// Two clusters over six rows: cost = 2*24 + 6*4 = 72.
	return testPart(6, []int32{0, 1}, []int32{2, 3, 4, 5})
}

func TestBudgetNilUnlimited(t *testing.T) {
	var b *Budget
	if !b.Charge(budgetTestPartition()) || !b.ChargeBytes(1<<40) {
		t.Error("nil budget should accept any charge")
	}
	if b.Exhausted() {
		t.Error("nil budget exhausted")
	}
	if b.Reason() != "" || b.LiveBytes() != 0 || b.Partitions() != 0 {
		t.Error("nil budget should report zero state")
	}
	b.Release(budgetTestPartition())
	b.ReleaseBytes(7)
}

func TestBudgetCost(t *testing.T) {
	if got := Cost(nil); got != 0 {
		t.Errorf("Cost(nil) = %d", got)
	}
	// The accounting charge per cluster and per row is fixed: every
	// cache bound and budget trip point is stated in it.
	if got := Cost(budgetTestPartition()); got != 2*clusterCharge+6*4 || clusterCharge != 24 {
		t.Errorf("Cost = %d with clusterCharge %d, want 72 with 24", got, clusterCharge)
	}
}

func TestBudgetNegativeLimitsUnlimited(t *testing.T) {
	b := NewBudget(-1, -1)
	for i := 0; i < 100; i++ {
		if !b.Charge(budgetTestPartition()) {
			t.Fatal("unlimited budget tripped")
		}
	}
	if b.Exhausted() {
		t.Error("unlimited budget exhausted")
	}
}

func TestBudgetZeroExhaustsImmediately(t *testing.T) {
	b := NewBudget(0, -1)
	if b.Charge(budgetTestPartition()) {
		t.Error("zero byte budget should trip on the first charge")
	}
	if !b.Exhausted() {
		t.Error("not exhausted")
	}
	if !strings.Contains(b.Reason(), "memory budget exhausted") {
		t.Errorf("reason = %q", b.Reason())
	}
}

func TestBudgetPartitionCap(t *testing.T) {
	b := NewBudget(-1, 2)
	if !b.Charge(budgetTestPartition()) || !b.Charge(budgetTestPartition()) {
		t.Fatal("first two partitions should fit")
	}
	if b.Charge(budgetTestPartition()) {
		t.Error("third partition should trip the cap")
	}
	if !strings.Contains(b.Reason(), "partition budget exhausted") {
		t.Errorf("reason = %q", b.Reason())
	}
	if b.Partitions() != 3 {
		t.Errorf("partitions = %d", b.Partitions())
	}
}

func TestBudgetReleaseReturnsBytesButNotPartitions(t *testing.T) {
	p := budgetTestPartition()
	b := NewBudget(10*Cost(p), -1)
	b.Charge(p)
	if b.LiveBytes() != Cost(p) {
		t.Errorf("live = %d, want %d", b.LiveBytes(), Cost(p))
	}
	b.Release(p)
	if b.LiveBytes() != 0 {
		t.Errorf("live after release = %d", b.LiveBytes())
	}
	if b.Partitions() != 1 {
		t.Errorf("partition count should be monotone, got %d", b.Partitions())
	}
}

func TestBudgetExhaustionLatches(t *testing.T) {
	p := budgetTestPartition()
	b := NewBudget(Cost(p), -1)
	b.Charge(p)
	if b.Charge(p) {
		t.Fatal("second charge should trip")
	}
	first := b.Reason()
	b.Release(p)
	b.Release(p)
	if !b.Exhausted() {
		t.Error("release must not un-latch exhaustion")
	}
	b.ChargeBytes(1)
	if b.Reason() != first {
		t.Errorf("reason changed from %q to %q", first, b.Reason())
	}
}

func TestBudgetConcurrentCharges(t *testing.T) {
	p := budgetTestPartition()
	b := NewBudget(-1, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Charge(p)
				b.Release(p)
			}
		}()
	}
	wg.Wait()
	if !b.Exhausted() {
		t.Error("800 partitions over a 64 cap should exhaust")
	}
	if b.Partitions() != 800 {
		t.Errorf("partitions = %d, want 800", b.Partitions())
	}
	if b.LiveBytes() != 0 {
		t.Errorf("live bytes = %d, want 0 after symmetric releases", b.LiveBytes())
	}
}
