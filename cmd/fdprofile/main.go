// Command fdprofile prints a complete data-profiling report for a CSV
// file: per-column statistics, minimal keys, the canonical FD cover and
// the redundancy ranking — the profiling workflow of the paper's
// introduction in one shot.
//
// Usage:
//
//	fdprofile [-null eq|neq] [-keys 64] [-workers N] file.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	dhyfd "repro"
	"repro/internal/profile"
)

func main() {
	nullSem := flag.String("null", "eq", "null semantics: eq or neq")
	maxKeys := flag.Int("keys", 64, "bound on minimal-key enumeration")
	workers := flag.Int("workers", 0, "worker-pool width of DHyFD's parallel passes (validation, DDM refreshes, PLI bootstrap, sampling) and of ranking over LHS groups (0 = serial)")
	pliCache := flag.Int64("pli-cache", 0, "share stripped partitions through an LRU cache of this many bytes (0 = disabled)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fdprofile [flags] file.csv\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	opts := dhyfd.Options{KeepDicts: true}
	if *nullSem == "neq" {
		opts.Semantics = dhyfd.NullNeqNull
	}
	rel, err := dhyfd.ReadCSVFile(flag.Arg(0), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	rep, err := profile.ProfileCtx(ctx, rel, profile.Options{MaxKeys: *maxKeys, Workers: *workers, CacheBytes: *pliCache})
	if err != nil {
		var perr *dhyfd.PanicError
		if errors.Is(err, context.Canceled) && rep.Run != nil {
			fmt.Fprintln(os.Stderr, "fdprofile: interrupted; partial run report:")
			fmt.Fprintln(os.Stderr, rep.Run.String())
		} else if errors.As(err, &perr) {
			fmt.Fprintf(os.Stderr, "fdprofile: internal panic at %s: %v\n%s\n", perr.Site, perr.Value, perr.Stack)
		} else {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
	fmt.Printf("profile of %s (%v semantics)\n\n", flag.Arg(0), opts.Semantics)
	rep.Write(os.Stdout, rel.Names)
}
