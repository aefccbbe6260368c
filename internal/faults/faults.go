// Package faults is a deterministic fault-injection registry for the
// discovery runtime's chaos tests.
//
// Hot paths declare named sites (partition construction, sampling merges,
// DDM refreshes, pool workers, sampling runs) and call Hit or Check at the
// site. Tests arm a site with a Plan — panic, error, or delay on the Nth
// hit — and the runtime's recovery layers must turn the injection into a
// typed error plus a sound partial result.
//
// Disarmed cost is one atomic pointer load compared against nil, so the
// instrumentation stays in production builds: the registry is compiled
// down to a nil-check when no test has armed it.
//
// Plans are one-shot: a plan fires exactly on its Nth hit and disarms
// itself, so post-failure recovery code (the post-run soundness verifier,
// cleanup paths) can re-enter the same site safely.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names an injection point in the discovery runtime.
type Site string

// The instrumented sites. Arm accepts any Site value, so tests may define
// private sites of their own, but these are the ones the runtime hits.
const (
	// PartitionBuild fires once per single-attribute partition built in
	// partition.Single — behind partition.Singles (one pool item per
	// column) and ForAttrsCached's start partition — the constructor
	// every algorithm's setup runs per column.
	PartitionBuild Site = "partition.build"
	// DDMRefresh fires at the start of a DHyFD dynamic-data-manager
	// refresh (Algorithm 3).
	DDMRefresh Site = "ddm.refresh"
	// EngineWorker fires once per work item inside engine.Pool workers.
	EngineWorker Site = "engine.worker"
	// SamplingRun fires once per sampling.ClusterNeighborSample call, on
	// the calling goroutine: once for a hybrid's initial sample of all
	// columns, once per HyFD progressive round.
	SamplingRun Site = "sampling.run"
	// SamplingShardMerge fires once per item while the agree-set passes
	// merge their item-local sets into the shared non-FD set, in item
	// order, on a pool of more than one worker: once per sampled partition
	// of sampling.ClusterNeighborSample, once per row block of
	// sampling.NegativeCover. A single-item pass never reaches it.
	SamplingShardMerge Site = "sampling.shardmerge"
	// RankingRun fires once per LHS group inside the redundancy-ranking
	// kernels (ranking.RankCtx / TotalsCtx), usually on a pool worker.
	RankingRun Site = "ranking.run"
	// TopKPrune fires on every fused top-k bound check
	// (topk.Collector.Prunable), the branch-abandonment decision of
	// WithTopK discovery, often on a validation worker.
	TopKPrune Site = "topk.prune"
)

// Sites lists the runtime's instrumented sites in a stable order, the set
// the chaos suite iterates.
func Sites() []Site {
	return []Site{PartitionBuild, DDMRefresh, EngineWorker, SamplingRun, SamplingShardMerge, RankingRun, TopKPrune}
}

// Kind selects what an armed plan injects.
type Kind int

const (
	// KindPanic panics with an Injection value.
	KindPanic Kind = iota
	// KindError returns an Injection error from Hit (Check panics with it
	// instead, for call sites without an error path).
	KindError
	// KindDelay sleeps for Plan.Delay, then lets the hit proceed. Used to
	// widen cancellation windows deterministically.
	KindDelay
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrInjected is the sentinel all injected errors and panics wrap;
// errors.Is(err, faults.ErrInjected) identifies an injection anywhere in
// a wrapped chain, including through engine.PanicError.
var ErrInjected = errors.New("faults: injected failure")

// Injection is the value injected failures carry: panics panic with it and
// errors return it, so recovery layers can attribute the failure to its
// site. It wraps ErrInjected.
type Injection struct {
	Site Site
	Kind Kind
}

func (i Injection) Error() string {
	return fmt.Sprintf("faults: injected %v at %s", i.Kind, i.Site)
}

// Unwrap makes errors.Is(i, ErrInjected) true.
func (i Injection) Unwrap() error { return ErrInjected }

// Plan describes one injection at a site.
type Plan struct {
	// Kind selects panic, error or delay. Default KindPanic.
	Kind Kind
	// N is the 1-based hit on which the plan fires; 0 and 1 both mean the
	// first hit. The plan disarms itself after firing.
	N int
	// Delay is how long a KindDelay hit sleeps.
	Delay time.Duration
}

// registry holds the armed plans. A nil registry pointer — the steady
// state — means everything is disarmed.
type registry struct {
	mu    sync.Mutex
	plans map[Site]*armedPlan
}

type armedPlan struct {
	plan Plan
	hits int
	done bool
}

var active atomic.Pointer[registry]

// Arm installs a plan at the site and returns a function that disarms it.
// Arming the same site twice replaces the earlier plan. Tests must call the
// returned disarm (typically via t.Cleanup) so later tests start clean.
func Arm(site Site, p Plan) (disarm func()) {
	if p.N < 1 {
		p.N = 1
	}
	for {
		reg := active.Load()
		if reg == nil {
			reg = &registry{plans: make(map[Site]*armedPlan)}
			if !active.CompareAndSwap(nil, reg) {
				continue
			}
		}
		reg.mu.Lock()
		if active.Load() != reg {
			// Lost a race with a concurrent Disarm that retired reg.
			reg.mu.Unlock()
			continue
		}
		reg.plans[site] = &armedPlan{plan: p}
		reg.mu.Unlock()
		return func() { Disarm(site) }
	}
}

// Disarm removes any plan at the site. When the last plan goes, the
// registry pointer returns to nil and Hit is a nil-check again.
func Disarm(site Site) {
	reg := active.Load()
	if reg == nil {
		return
	}
	reg.mu.Lock()
	delete(reg.plans, site)
	if len(reg.plans) == 0 {
		// Retire under the lock, which Arm's in-lock recheck pairs with.
		active.CompareAndSwap(reg, nil)
	}
	reg.mu.Unlock()
}

// Reset disarms every site.
func Reset() { active.Store(nil) }

// Armed reports whether the site holds a plan that has not fired yet.
// Chaos tests use it after a run to tell "the fault fired" from "the
// algorithm never reached the site often enough".
func Armed(site Site) bool {
	reg := active.Load()
	if reg == nil {
		return false
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	ap, ok := reg.plans[site]
	return ok && !ap.done
}

// Hit reports one execution of the site. Disarmed (the common case) it
// returns nil after a single atomic load. An armed KindError plan firing
// returns its Injection; KindPanic panics with it; KindDelay sleeps and
// returns nil. Counting is exact under concurrency.
func Hit(site Site) error {
	reg := active.Load()
	if reg == nil {
		return nil
	}
	return reg.hit(site)
}

// Check is Hit for call sites without an error path: an injected error
// panics with its Injection, to be recovered and typed by the engine pool
// or the driver's top-level recovery.
func Check(site Site) {
	if err := Hit(site); err != nil {
		panic(err)
	}
}

func (r *registry) hit(site Site) error {
	r.mu.Lock()
	ap, ok := r.plans[site]
	if !ok || ap.done {
		r.mu.Unlock()
		return nil
	}
	ap.hits++
	if ap.hits != ap.plan.N {
		r.mu.Unlock()
		return nil
	}
	ap.done = true
	plan := ap.plan
	r.mu.Unlock()

	inj := Injection{Site: site, Kind: plan.Kind}
	switch plan.Kind {
	case KindError:
		return inj
	case KindDelay:
		time.Sleep(plan.Delay)
		return nil
	default:
		panic(inj)
	}
}

// SiteOf extracts the fault site from a recovered panic value or error
// chain, or "" when the value did not originate from an injection.
func SiteOf(v any) Site {
	switch x := v.(type) {
	case Injection:
		return x.Site
	case error:
		var inj Injection
		if errors.As(x, &inj) {
			return inj.Site
		}
	}
	return ""
}
