// Command fdperf is the repository's performance benchmark: CSV bytes in,
// a cover or ranked list out, timed end to end and attributed layer by
// layer. Each workload generates eight relations from an internal/dataset
// shape, writes them as CSV files, and runs one closed loop of jobs over
// those files — one client, the next job starting when the previous one
// finished — with every run serial (WithWorkers(1)). Times are reported in
// reference seconds: each is scaled by a fixed kernel run right beside it
// (ref.go), which cancels the host's own speed drift.
//
// One workload, as the benchmark contract runs it (the last stdout line is
// the JSON summary):
//
//	fdperf --workload tall-pli --seed 0 --seconds 20 --trace 0
//
// Every workload, each in its own child process, appending one JSON line
// per workload to run.jsonl:
//
//	fdperf -o run.jsonl
//
// --trace 1 reports the per-layer metrics instead of the end-to-end ones;
// -spans FILE also appends the recorded spans as JSON lines. Sets of runs
// written with -o compare with
//
//	fdperf -compare base.jsonl new.jsonl
//
// against the bounds in the BENCHMARK.json found in or above the working
// directory. cmd/fdperf/README.md describes the workloads and metrics.
// Exit status: 0 when every output check passed, 1 when a check failed,
// the run could not complete or -compare found a regression, 2 on bad
// usage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := flag.Int64("seed", 0, "shift every generator seed by this much")
	seconds := flag.Float64("seconds", 20, "time the jobs for at least this many seconds (and at least 40 jobs)")
	traceMode := flag.Int("trace", 0, "1 traces the jobs and reports per-layer metrics instead of end-to-end ones")
	spans := flag.String("spans", "", "with --trace 1, append the spans to this file as JSON lines")
	outPath := flag.String("o", "", "append one JSON line per workload run to this file")
	smoke := flag.Bool("smoke", false, "1/20-size inputs, one set-up, two jobs, no pinned outputs: a quick self-check")
	compare := flag.Bool("compare", false, "compare sets of runs: fdperf -compare base.jsonl new.jsonl ...")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *compare {
		regressed, err := runCompare(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdperf:", err)
			stop()
			os.Exit(2)
		}
		if regressed {
			stop()
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || (*traceMode != 0 && *traceMode != 1) {
		flag.Usage()
		stop()
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *traceMode == 1, smoke: *smoke, spans: *spans}

	var ok bool
	var err error
	if *workloadName == "" {
		ok, err = runAll(ctx, o, *outPath)
	} else {
		ok, err = runOne(ctx, *workloadName, o, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdperf:", err)
	}
	if err != nil || !ok {
		stop()
		os.Exit(1)
	}
}

// record is one line of an -o file: a run's summary and what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	summary
}

// runOne runs one workload in this process, prints its metrics and, as
// the last line, its JSON summary.
func runOne(ctx context.Context, name string, o runOpts, outPath string) (bool, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return false, err
	}
	s, err := runWorkload(ctx, w, o)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printMetrics(w.name, defs, s.Metrics)
	fmt.Printf("%-13s %d of %d jobs and checks failed\n", w.name, s.Failed, s.Attempted)
	line, err := json.Marshal(s)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	if outPath != "" {
		if err := appendRecord(outPath, record{Workload: w.name, Seed: o.seed, Trace: o.trace, summary: s}); err != nil {
			return false, err
		}
	}
	return s.Correct, nil
}

// runAll runs every workload in a child process of its own, one at a time,
// passing each child's report through and collecting its summary.
func runAll(ctx context.Context, o runOpts, outPath string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range workloads {
		args := []string{
			"--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(boolInt(o.trace)),
		}
		if o.spans != "" {
			args = append(args, "--spans", o.spans)
		}
		if o.smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		var ee *exec.ExitError
		if runErr != nil && !errors.As(runErr, &ee) {
			return false, fmt.Errorf("%s: %w", w.name, runErr)
		}
		lines := strings.Split(string(bytes.TrimRight(stdout, "\n")), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var s summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			if runErr != nil {
				return false, fmt.Errorf("%s: %w", w.name, runErr)
			}
			return false, fmt.Errorf("%s: no summary line: %w", w.name, err)
		}
		if !s.Correct || runErr != nil {
			ok = false
		}
		if outPath != "" {
			if err := appendRecord(outPath, record{Workload: w.name, Seed: o.seed, Trace: o.trace, summary: s}); err != nil {
				return false, err
			}
		}
	}
	return ok, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// appendRecord appends r to path as one JSON line.
func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}
