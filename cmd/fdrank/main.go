// Command fdrank ranks the functional dependencies of a CSV file by the
// data redundancy they cause (the paper's Section VI measure).
//
// Usage:
//
//	fdrank [-top 25] [-topk 0] [-column name] [-null eq|neq] [-workers N] [-pli-cache BYTES] [-stats] file.csv
//
// Without -column the canonical cover is ranked globally: highest-impact
// FDs first, each with its #red+0 / #red / #red-0 counts. With -column the
// per-column view of Section VI-B is printed: the minimal LHSs determining
// that column and the redundancy each causes in it.
//
// -topk N takes the fused fast path: discovery itself keeps only the N
// most relevant FDs and prunes lattice regions that cannot reach the top
// N, skipping the full discover-then-rank pipeline (and the canonical
// cover and dataset totals, which need the whole cover). -workers runs
// discovery's parallel passes and the ranking kernels, which fan out over
// LHS groups, on a worker pool of that width. -pli-cache shares one
// stripped-partition cache across discovery and ranking, so ranking
// reuses the partitions discovery built. -stats prints the ranking run
// report to stderr.
//
// -checkpoint DIR / -interval / -resume / -retries make the discovery
// stage durable exactly as in fddiscover: an interrupted run flushes a
// final snapshot, and re-running with -resume continues it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	dhyfd "repro"
)

func main() {
	top := flag.Int("top", 25, "print only the top N FDs (0 = all)")
	topK := flag.Int("topk", 0, "fused fast path: discover only the N most relevant FDs, pruning the rest of the search (0 = full pipeline)")
	column := flag.String("column", "", "fix a column and list its minimal LHSs")
	nullSem := flag.String("null", "eq", "null semantics: eq or neq")
	pliCache := flag.Int64("pli-cache", 0, "share stripped partitions through an LRU cache of this many bytes, spanning discovery and ranking (0 = ranking-private cache only)")
	spillDir := flag.String("spill-dir", "", "spill cold PLI-cache entries to one temp file under this directory, read back on a hit, instead of discarding them (empty = spill disabled)")
	pageColumns := flag.Bool("page-columns", false, "page the encoded columns to memory-mapped temp files during ingest instead of holding them on the heap")
	workers := flag.Int("workers", 1, "worker-pool width of discovery's parallel passes (validation, lattice joins, PLI bootstrap, sampling, pair scan) and of ranking over LHS groups (output identical at any width)")
	stats := flag.Bool("stats", false, "print the ranking run report to stderr")
	checkpoint := flag.String("checkpoint", "", "snapshot the discovery run's search state into this directory for -resume (empty = durability off)")
	interval := flag.Duration("interval", 0, "checkpoint write interval (0 = the 30s default)")
	resume := flag.Bool("resume", false, "continue discovery from the snapshot in the -checkpoint directory")
	retries := flag.Int("retries", 0, "re-run transiently failed pool work items (validation batches, partitions, sampling and pair-scan items) up to N times")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fdrank [flags] file.csv\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *topK < 0 {
		fmt.Fprintf(os.Stderr, "fdrank: -topk %d: must be >= 0\n", *topK)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "fdrank: -resume requires -checkpoint DIR")
		os.Exit(2)
	}
	if *retries < 0 {
		fmt.Fprintf(os.Stderr, "fdrank: -retries %d: must be >= 0\n", *retries)
		os.Exit(2)
	}

	opts := dhyfd.Options{}
	if *nullSem == "neq" {
		opts.Semantics = dhyfd.NullNeqNull
	}
	opts.PageColumns = *pageColumns
	rel, err := dhyfd.ReadCSVFile(flag.Arg(0), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer rel.Close()
	// exit releases the relation (and its paged-column temp files, under
	// -page-columns) before terminating: os.Exit skips the defer above.
	exit := func(code int) {
		rel.Close()
		os.Exit(code)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	start := time.Now()
	// shared holds the options every stage of the pipeline honours; one
	// cache spans discovery and ranking, so ranking reuses the partitions
	// the discovery run built.
	shared := []dhyfd.Option{dhyfd.WithWorkers(*workers)}
	if *pliCache > 0 {
		cache := dhyfd.NewPLICache(*pliCache)
		// Close removes the spill tier's temp file when -spill-dir
		// attached one to the shared cache; without spill it is a cheap
		// no-op.
		defer cache.Close()
		shared = append(shared, dhyfd.WithCache(cache))
	}
	if *spillDir != "" {
		shared = append(shared, dhyfd.WithSpillDir(*spillDir))
	}
	// Durability applies to discovery only — the ranking stages rebuild
	// from the cover — so these options extend the Discover calls, not
	// shared (which the Rank* stages also consume).
	var durable []dhyfd.Option
	if *checkpoint != "" {
		durable = append(durable, dhyfd.WithCheckpoint(*checkpoint, *interval))
	}
	if *resume {
		durable = append(durable, dhyfd.WithResume(*checkpoint))
	}
	if *retries > 0 {
		durable = append(durable, dhyfd.WithRetries(*retries))
	}
	discoverOpts := func(extra ...dhyfd.Option) []dhyfd.Option {
		opts := append([]dhyfd.Option{}, shared...)
		opts = append(opts, durable...)
		return append(opts, extra...)
	}

	if *topK > 0 && *column == "" {
		// Fused fast path: the run itself keeps the top-k heap and prunes
		// branches that cannot enter it; Result.Ranked is the answer.
		res, err := dhyfd.Discover(ctx, rel, discoverOpts(dhyfd.WithTopK(*topK))...)
		if err != nil {
			reportDiscoverError(err, res, *checkpoint)
			exit(1)
		}
		if res.Stats.Degraded {
			fmt.Fprintf(os.Stderr, "fdrank: warning: degraded run (%s); the top-k below is sound but may be incomplete\n", res.Stats.DegradedReason)
		}
		if *stats {
			fmt.Fprintln(os.Stderr, res.Stats.String())
		}
		fmt.Fprintf(os.Stderr, "top %d FDs by redundancy (%v)\n", len(res.Ranked), time.Since(start))
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		defer tw.Flush()
		fmt.Fprintf(tw, "#red+0\t#red\t#red-0\tFD\n")
		for _, r := range res.Ranked {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%s\n",
				r.Counts.WithNulls, r.Counts.NoNullRHS, r.Counts.NoNulls, r.FD.Format(rel.Names))
		}
		return
	}
	if *topK > 0 {
		fmt.Fprintln(os.Stderr, "fdrank: -topk is ignored with -column (the per-column view ranks every minimal LHS)")
	}

	res, err := dhyfd.Discover(ctx, rel, discoverOpts()...)
	if err != nil {
		reportDiscoverError(err, res, *checkpoint)
		exit(1)
	}
	if res.Stats.Degraded {
		fmt.Fprintf(os.Stderr, "fdrank: warning: degraded run (%s); ranking a sound but possibly incomplete cover\n", res.Stats.DegradedReason)
	}
	can := dhyfd.CanonicalCover(rel.NumCols(), res.FDs)
	fmt.Fprintf(os.Stderr, "%d FDs in the canonical cover (%v)\n", len(can), time.Since(start))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()

	if *column != "" {
		col := -1
		for i, name := range rel.Names {
			if name == *column {
				col = i
				break
			}
		}
		if col < 0 {
			fmt.Fprintf(os.Stderr, "unknown column %q (have %v)\n", *column, rel.Names)
			exit(2)
		}
		views, rstats, rerr := dhyfd.RankForColumn(ctx, rel, can, col, shared...)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "fdrank:", rerr)
			exit(1)
		}
		if *stats {
			fmt.Fprint(os.Stderr, rstats.String())
		}
		fmt.Fprintf(tw, "minimal LHSs for %s\t#red\t#red-0\n", *column)
		for _, v := range views {
			fmt.Fprintf(tw, "%s\t%d\t%d\n", v.LHS.Names(rel.Names), v.Red, v.RedNoNN)
		}
		return
	}

	ranked, rstats, rerr := dhyfd.Rank(ctx, rel, can, shared...)
	if rerr != nil {
		fmt.Fprintln(os.Stderr, "fdrank:", rerr)
		exit(1)
	}
	tot, tstats, terr := dhyfd.TotalRedundancy(ctx, rel, can, shared...)
	if terr != nil {
		fmt.Fprintln(os.Stderr, "fdrank:", terr)
		exit(1)
	}
	if *stats {
		fmt.Fprint(os.Stderr, rstats.String())
		fmt.Fprint(os.Stderr, tstats.String())
	}
	fmt.Fprintf(os.Stderr, "dataset redundancy: %d of %d values (%.2f%%), %d incl. nulls (%.2f%%)\n",
		tot.Red, tot.Values, tot.PercentRed(), tot.RedWithNulls, tot.PercentRedWithNulls())

	fmt.Fprintf(tw, "#red+0\t#red\t#red-0\tFD\n")
	for i, r := range ranked {
		if *top > 0 && i >= *top {
			fmt.Fprintf(tw, "…\t\t\t(%d more)\n", len(ranked)-i)
			break
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\n",
			r.Counts.WithNulls, r.Counts.NoNullRHS, r.Counts.NoNulls, r.FD.Format(rel.Names))
	}
}

// reportDiscoverError explains a failed discovery run on stderr. A
// checkpointed run's final snapshot is already flushed by the time
// Discover returns, so the -resume hint is accurate.
func reportDiscoverError(err error, res *dhyfd.Result, checkpoint string) {
	var perr *dhyfd.PanicError
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "fdrank: interrupted; partial run report:")
		if checkpoint != "" {
			fmt.Fprintf(os.Stderr, "fdrank: checkpoint flushed to %s; re-run with -resume to continue\n", checkpoint)
		}
		fmt.Fprintln(os.Stderr, res.Stats.String())
	} else if errors.As(err, &perr) {
		fmt.Fprintf(os.Stderr, "fdrank: internal panic at %s: %v\n%s\n", perr.Site, perr.Value, perr.Stack)
	} else {
		fmt.Fprintln(os.Stderr, err)
	}
}
