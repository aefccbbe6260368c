package partition

import (
	"fmt"
	"math"
	"sync/atomic"
)

// clusterCharge is what Cost charges per cluster. It is an accounting
// unit, not a measured size: a partition holds one 4-byte offset per
// cluster, and the charge stays at 24 bytes so that every cache bound,
// eviction and budget trip point keeps the value it had.
const clusterCharge = 24

// Cost is the accounting size of a stripped partition that the cache
// bound and the memory budget charge: clusterCharge per cluster plus four
// bytes per row inside clusters.
func Cost(p *Partition) int64 {
	if p == nil {
		return 0
	}
	return int64(p.Card())*clusterCharge + int64(p.Size())*4
}

// Budget bounds the partition memory a discovery run may hold and the
// total number of partitions it may materialize. Algorithms Charge the
// partitions they retain (and Release the ones they drop) and consult
// Exhausted before spending more memory; on exhaustion they stop refining
// or descending, finish the work already in flight, and return a partial
// result flagged Degraded — instead of OOMing.
//
// All methods are safe for concurrent use and safe on a nil *Budget,
// which behaves as unlimited, so call sites need no guards.
type Budget struct {
	maxBytes int64 // < 0: unlimited
	maxParts int64 // < 0: unlimited

	bytes  atomic.Int64 // live charged bytes
	parts  atomic.Int64 // total partitions materialized (monotone)
	spent  atomic.Bool
	reason atomic.Pointer[string]
}

// NewBudget returns a budget of maxBytes live partition bytes and
// maxPartitions total materialized partitions. Negative values leave the
// respective limit unbounded; zero is a real, immediately-exhaustible
// budget. A nil *Budget (no limits at all) is valid everywhere.
func NewBudget(maxBytes, maxPartitions int64) *Budget {
	return &Budget{maxBytes: maxBytes, maxParts: maxPartitions}
}

// Charge accounts for retaining p: its approximate bytes against the
// memory limit and one partition against the partition limit. It reports
// false — and latches the exhausted state — when either limit is now
// exceeded. The charge is kept either way (accounting stays consistent;
// the caller decides whether to keep or drop p).
func (b *Budget) Charge(p *Partition) bool {
	if b == nil {
		return true
	}
	return b.charge(Cost(p), 1)
}

// ChargeBytes accounts for n bytes of partition-adjacent memory (probe
// tables, dynamic arrays) without counting a partition.
func (b *Budget) ChargeBytes(n int64) bool {
	if b == nil {
		return true
	}
	return b.charge(n, 0)
}

func (b *Budget) charge(bytes, parts int64) bool {
	nb := b.bytes.Add(bytes)
	np := b.parts.Add(parts)
	if b.maxBytes >= 0 && nb > b.maxBytes {
		b.exhaust(fmt.Sprintf("memory budget exhausted (~%d of %d partition bytes live)", nb, b.maxBytes))
	}
	if b.maxParts >= 0 && np > b.maxParts {
		b.exhaust(fmt.Sprintf("partition budget exhausted (%d of %d partitions materialized)", np, b.maxParts))
	}
	return !b.spent.Load()
}

// Release returns p's bytes to the budget — the partition count is
// monotone and stays. Releasing does not un-latch exhaustion: once a run
// degrades it stays degraded, so its result is consistently labelled.
func (b *Budget) Release(p *Partition) {
	if b == nil || p == nil {
		return
	}
	b.bytes.Add(-Cost(p))
}

// ReleaseBytes undoes a ChargeBytes.
func (b *Budget) ReleaseBytes(n int64) {
	if b == nil {
		return
	}
	b.bytes.Add(-n)
}

// Headroom returns how many more bytes fit under the memory limit before
// it trips — never negative — or math.MaxInt64 when the budget is nil or
// unlimited. Cooperative spenders (the PLI cache) probe it to shed load
// instead of latching the run into the degraded state.
func (b *Budget) Headroom() int64 {
	if b == nil || b.maxBytes < 0 {
		return math.MaxInt64
	}
	h := b.maxBytes - b.bytes.Load()
	if h < 0 {
		return 0
	}
	return h
}

func (b *Budget) exhaust(reason string) {
	if b.spent.CompareAndSwap(false, true) {
		b.reason.Store(&reason)
	}
}

// Exhausted reports whether any limit has been exceeded. It stays true
// once set.
func (b *Budget) Exhausted() bool {
	return b != nil && b.spent.Load()
}

// Reason describes the limit that tripped, or "" while within budget.
func (b *Budget) Reason() string {
	if b == nil {
		return ""
	}
	if r := b.reason.Load(); r != nil {
		return *r
	}
	return ""
}

// LiveBytes returns the currently charged approximate bytes.
func (b *Budget) LiveBytes() int64 {
	if b == nil {
		return 0
	}
	return b.bytes.Load()
}

// Partitions returns the total partitions charged so far.
func (b *Budget) Partitions() int64 {
	if b == nil {
		return 0
	}
	return b.parts.Load()
}
