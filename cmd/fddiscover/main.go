// Command fddiscover discovers the functional dependencies of a CSV file.
//
// Usage:
//
//	fddiscover [-algo dhyfd] [-workers 1] [-null eq|neq] [-canonical] [-ratio 3.0] [-topk 0] [-max-error 0] file.csv
//
// Algorithms: dhyfd (default), hyfd, tane, fdep, fdep1, fdep2, fastfds, dfd.
//
// The file must have a header row. Output is one FD per line using column
// names, preceded by a summary. With -canonical the left-reduced cover is
// shrunk to a canonical cover before printing. With -topk N only the N FDs
// causing the most redundant data values are discovered (the search prunes
// lattice branches that cannot reach the top N) and printed most relevant
// first with their redundancy counts; -canonical is ignored there. With
// -max-error EPS validity is relaxed to approximate FDs whose g3 error
// stays within EPS of the row count (lattice algorithms only).
// Interrupting the run (Ctrl-C) cancels discovery promptly and prints the
// statistics of the phases completed so far.
//
// -mem-budget and -max-partitions bound the run's partition footprint;
// when a budget is exhausted the run finishes early with a sound partial
// cover and a warning on stderr. -pli-cache shares stripped partitions
// across the run's subsystems through a size-bounded LRU cache; hit and
// miss counts show up in the -stats report. -workers N runs each parallel
// pass over its own items on N workers: validation over a level's
// FD-nodes, lattice joins over refinement jobs, the PLI bootstrap over
// columns, the initial sample over the columns' partitions, the FDEP and
// FastFDs pair scan over blocks of outer rows, and post-run verification
// over LHS groups; the output is identical at every width. -spill-dir
// spills cold cache entries to one temp file, read back into the heap on
// a hit, instead of discarding them so the resident footprint stays
// within the budget.
// -page-columns pages the encoded columns themselves to memory-mapped
// temp files during ingest, so the relation's code storage stays
// off-heap.
//
// -checkpoint DIR makes the run durable: the search state is snapshotted
// into DIR every -interval (default 30s), atomically, and a final snapshot
// is flushed when the run is interrupted or times out. Re-running the same
// command with -resume added continues from the snapshot and prints a
// cover byte-identical to an uninterrupted run; a SIGKILLed run loses at
// most one interval of work. -retries N re-runs transiently failed pool
// work items up to N times with jittered exponential backoff.
//
// Exit codes: 0 success (including degraded-with-warning), 1 runtime
// failure or interrupted/partial run, 2 usage error (including -resume
// without -checkpoint and a snapshot that does not match the run).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	dhyfd "repro"
)

func main() {
	algo := flag.String("algo", "dhyfd", "algorithm: dhyfd, hyfd, tane, fdep, fdep1, fdep2, fastfds, dfd")
	workers := flag.Int("workers", 1, "worker-pool width of every parallel pass: validation, lattice joins, PLI bootstrap, sampling, pair scan, post-run verification (output identical at any width)")
	nullSem := flag.String("null", "eq", "null semantics: eq (null = null) or neq (null ≠ null)")
	canonical := flag.Bool("canonical", false, "emit a canonical cover instead of the left-reduced cover")
	ratio := flag.Float64("ratio", 3.0, "DHyFD efficiency–inefficiency ratio")
	nullToken := flag.String("null-token", "", "extra token to treat as a missing value (empty string and '?' always are)")
	stats := flag.Bool("stats", false, "print the run report to stderr")
	timeout := flag.Duration("timeout", 0, "abort discovery after this long (0 = no limit)")
	memBudget := flag.Int64("mem-budget", -1, "approximate partition-memory budget in bytes; on exhaustion the run degrades to a sound partial result (-1 = unlimited)")
	maxParts := flag.Int("max-partitions", -1, "cap on partitions materialized; on exhaustion the run degrades to a sound partial result (-1 = unlimited)")
	pliCache := flag.Int64("pli-cache", 0, "share stripped partitions through an LRU cache of this many bytes (0 = disabled)")
	spillDir := flag.String("spill-dir", "", "spill cold PLI-cache entries to one temp file under this directory, read back on a hit, instead of discarding them (empty = spill disabled)")
	pageColumns := flag.Bool("page-columns", false, "page the encoded columns to memory-mapped temp files during ingest instead of holding them on the heap")
	topK := flag.Int("topk", 0, "discover only the N most relevant FDs, pre-ranked by redundancy (0 = full cover)")
	maxError := flag.Float64("max-error", 0, "accept approximate FDs with g3 error up to this fraction of rows, in [0,1) (0 = exact)")
	checkpoint := flag.String("checkpoint", "", "snapshot the run's search state into this directory for -resume (empty = durability off)")
	interval := flag.Duration("interval", 0, "checkpoint write interval (0 = the 30s default)")
	resume := flag.Bool("resume", false, "continue from the snapshot in the -checkpoint directory")
	retries := flag.Int("retries", 0, "re-run transiently failed pool work items (validation batches, partitions, sampling and pair-scan items) up to N times")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fddiscover [flags] file.csv\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	a, err := dhyfd.ParseAlgorithm(*algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *topK < 0 {
		fmt.Fprintf(os.Stderr, "fddiscover: -topk %d: must be >= 0\n", *topK)
		os.Exit(2)
	}
	if *maxError < 0 || *maxError >= 1 {
		fmt.Fprintf(os.Stderr, "fddiscover: -max-error %v: must be in [0, 1)\n", *maxError)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "fddiscover: -resume requires -checkpoint DIR")
		os.Exit(2)
	}
	if *retries < 0 {
		fmt.Fprintf(os.Stderr, "fddiscover: -retries %d: must be >= 0\n", *retries)
		os.Exit(2)
	}
	opts := dhyfd.Options{}
	if *nullSem == "neq" {
		opts.Semantics = dhyfd.NullNeqNull
	}
	if *nullToken != "" {
		opts.NullTokens = []string{"", "?", *nullToken}
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

	discoverOpts := []dhyfd.Option{
		dhyfd.WithAlgorithm(a),
		dhyfd.WithWorkers(*workers),
		dhyfd.WithRatio(*ratio),
	}
	if *timeout > 0 {
		discoverOpts = append(discoverOpts, dhyfd.WithDeadline(time.Now().Add(*timeout)))
	}
	if *memBudget >= 0 {
		discoverOpts = append(discoverOpts, dhyfd.WithMemoryBudget(*memBudget))
	}
	if *maxParts >= 0 {
		discoverOpts = append(discoverOpts, dhyfd.WithMaxPartitions(*maxParts))
	}
	if *pliCache > 0 {
		discoverOpts = append(discoverOpts, dhyfd.WithPartitionCache(*pliCache))
	}
	if *spillDir != "" {
		discoverOpts = append(discoverOpts, dhyfd.WithSpillDir(*spillDir))
	}
	if *topK > 0 {
		discoverOpts = append(discoverOpts, dhyfd.WithTopK(*topK))
	}
	if *maxError > 0 {
		discoverOpts = append(discoverOpts, dhyfd.WithMaxError(*maxError))
	}
	if *checkpoint != "" {
		discoverOpts = append(discoverOpts, dhyfd.WithCheckpoint(*checkpoint, *interval))
	}
	if *resume {
		discoverOpts = append(discoverOpts, dhyfd.WithResume(*checkpoint))
	}
	if *retries > 0 {
		discoverOpts = append(discoverOpts, dhyfd.WithRetries(*retries))
	}

	res, err := dhyfd.Discover(ctx, rel, discoverOpts...)
	if err != nil {
		// The interrupt and deadline paths below run after Discover has
		// flushed its final checkpoint, so the re-run hint is accurate.
		resumeHint := func() {
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "fddiscover: checkpoint flushed to %s; re-run with -resume to continue\n", *checkpoint)
			}
		}
		var perr *dhyfd.PanicError
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "fddiscover: interrupted; partial run report:")
			resumeHint()
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintln(os.Stderr, "fddiscover: timed out; partial run report:")
			resumeHint()
		case errors.As(err, &perr):
			fmt.Fprintf(os.Stderr, "fddiscover: internal panic at %s: %v\n%s\n", perr.Site, perr.Value, perr.Stack)
		case errors.Is(err, dhyfd.ErrSnapshotMismatch) || errors.Is(err, dhyfd.ErrSnapshotCorrupt) || errors.Is(err, dhyfd.ErrSnapshotVersion):
			fmt.Fprintln(os.Stderr, "fddiscover:", err)
			exit(2)
		default:
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Fprintln(os.Stderr, res.Stats.String())
		exit(1)
	}
	if res.Stats.Degraded {
		fmt.Fprintf(os.Stderr, "fddiscover: warning: degraded run (%s); the cover below is sound but may be incomplete\n", res.Stats.DegradedReason)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, res.Stats.String())
	}

	if *topK > 0 {
		if *canonical {
			fmt.Fprintln(os.Stderr, "fddiscover: -canonical is ignored under -topk (the top-k cover is already minimal and ranked)")
		}
		fmt.Fprintf(os.Stderr, "%s: %d rows, %d columns; top-%d FDs by redundancy (%v, %v)\n",
			flag.Arg(0), rel.NumRows(), rel.NumCols(), *topK, a, res.Stats.Elapsed)
		for _, r := range res.Ranked {
			fmt.Printf("%8d  %s\n", r.Counts.WithNulls, r.FD.Format(rel.Names))
		}
		return
	}

	fds := res.FDs
	label := "left-reduced"
	if *canonical {
		cstart := time.Now()
		fds = dhyfd.CanonicalCover(rel.NumCols(), fds)
		fmt.Fprintf(os.Stderr, "canonical cover computed in %v\n", time.Since(cstart))
		label = "canonical"
	}

	count, attrs := dhyfd.CoverSize(fds)
	fmt.Fprintf(os.Stderr, "%s: %d rows, %d columns; %s cover: %d FDs, %d attribute occurrences (%v, %v)\n",
		flag.Arg(0), rel.NumRows(), rel.NumCols(), label, count, attrs, a, res.Stats.Elapsed)
	fmt.Print(dhyfd.FormatFDs(fds, rel.Names))
}
