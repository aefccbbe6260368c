// Command crashcheck is the durability acceptance harness behind
// `make crash`: it SIGKILLs a checkpointing fddiscover mid-run and
// asserts that -resume completes the run with a cover byte-identical to
// an uninterrupted one. Unlike the in-process resume matrix in
// internal/integration, this drives the real binary through a real
// process kill — no deferred recovers, no graceful signal handler, the
// exact failure mode the checkpoint layer exists for.
//
// The harness:
//
//  1. generates a CSV hard enough that discovery runs for seconds
//     (low-cardinality prefix columns plus near-random tails),
//  2. builds cmd/fddiscover into a scratch directory,
//  3. records the uninterrupted stdout as the baseline,
//  4. starts a checkpointing run (-interval 1ms), waits for the first
//     snapshot file, SIGKILLs the process, and
//  5. re-runs with -resume, requiring exit 0 and stdout byte-identical
//     to the baseline.
//
// -pli-cache BYTES gives all three runs a PLI cache of that bound, so the
// snapshot carries a cache manifest and the resumed run rebuilds it
// (runstate.Harness.WarmCache) before it continues.
//
// Exit 0 on success; exit 1 with a diagnosis on any divergence.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/runstate"
)

func main() {
	algo := flag.String("algo", "dhyfd", "algorithm to crash and resume")
	rows := flag.Int("rows", 15000, "rows of the generated relation")
	cols := flag.Int("cols", 16, "columns of the generated relation")
	pliCache := flag.Int64("pli-cache", 0, "PLI cache bound in bytes, passed to all three runs (0 = no cache)")
	keep := flag.Bool("keep", false, "keep the scratch directory for inspection")
	flag.Parse()

	if err := run(*algo, *rows, *cols, *pliCache, *keep); err != nil {
		fmt.Fprintln(os.Stderr, "crashcheck:", err)
		os.Exit(1)
	}
	fmt.Println("crashcheck: kill -9 mid-run, resume byte-identical — ok")
}

func run(algo string, rows, cols int, pliCache int64, keep bool) error {
	scratch, err := os.MkdirTemp("", "crashcheck-")
	if err != nil {
		return err
	}
	if keep {
		fmt.Fprintln(os.Stderr, "crashcheck: scratch dir", scratch)
	} else {
		defer os.RemoveAll(scratch)
	}

	csvPath := filepath.Join(scratch, "data.csv")
	if err := writeCSV(csvPath, rows, cols); err != nil {
		return err
	}

	bin := filepath.Join(scratch, "fddiscover")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/fddiscover").CombinedOutput(); err != nil {
		return fmt.Errorf("building fddiscover: %w\n%s", err, out)
	}

	common := []string{"-algo", algo, "-workers", "4", "-pli-cache", strconv.FormatInt(pliCache, 10)}

	// Baseline: the uninterrupted cover.
	baseline, err := exec.Command(bin, append(common, csvPath)...).Output()
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}

	// Crash leg: start a checkpointing run and SIGKILL it once the first
	// snapshot lands. SIGKILL is the point — the process gets no chance
	// to flush, so only the atomically renamed interval snapshots exist.
	ckdir := filepath.Join(scratch, "ck")
	args := append(append([]string(nil), common...), "-checkpoint", ckdir, "-interval", "1ms", csvPath)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	finished := make(chan error, 1)
	go func() { finished <- cmd.Wait() }()

	snap := runstate.Path(ckdir)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, statErr := os.Stat(snap); statErr == nil {
			break
		}
		select {
		case <-finished:
			return fmt.Errorf("run finished (%v) before writing a snapshot; the generated relation is too easy — raise -rows/-cols", cmd.ProcessState)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			return errors.New("no snapshot appeared within 30s")
		}
	}
	// Let the run make real progress past its first snapshot so the
	// resume leg genuinely continues mid-lattice rather than from the
	// starting line. The default relation runs ~5s; a second here still
	// kills well before the finish.
	select {
	case <-finished:
		return fmt.Errorf("run finished (%v) before the kill; raise -rows/-cols", cmd.ProcessState)
	case <-time.After(time.Second):
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	werr := <-finished
	var exit *exec.ExitError
	if !errors.As(werr, &exit) || exit.ProcessState.ExitCode() != -1 {
		return fmt.Errorf("crash leg did not die by signal: %w", werr)
	}

	// Resume leg: must finish cleanly and reproduce the baseline bytes.
	resumeArgs := append(append([]string(nil), common...), "-checkpoint", ckdir, "-resume", csvPath)
	resumed, err := exec.Command(bin, resumeArgs...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return fmt.Errorf("resume run failed: %w\n%s", err, ee.Stderr)
		}
		return fmt.Errorf("resume run failed: %w", err)
	}
	if !bytes.Equal(resumed, baseline) {
		return fmt.Errorf("resumed cover diverges from the uninterrupted run (baseline %d bytes, resumed %d); re-run with -keep to inspect", len(baseline), len(resumed))
	}
	return nil
}

// writeCSV generates a relation that keeps discovery busy for seconds:
// uniformly low-cardinality columns push real FDs deep into the lattice
// (the 15000×16 default yields a ~8000-FD cover and a ~5s dhyfd run), so
// many checkpoint boundaries pass before the kill lands.
func writeCSV(path string, rows, cols int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(7))
	buf := bytes.NewBuffer(make([]byte, 0, 1<<20))
	for c := 0; c < cols; c++ {
		if c > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString("col")
		buf.WriteString(strconv.Itoa(c))
	}
	buf.WriteByte('\n')
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				buf.WriteByte(',')
			}
			card := 4
			if c >= cols/2 {
				card = 8
			}
			buf.WriteString(strconv.Itoa(rng.Intn(card)))
		}
		buf.WriteByte('\n')
		if buf.Len() > 1<<20 {
			if _, err := f.Write(buf.Bytes()); err != nil {
				f.Close()
				return err
			}
			buf.Reset()
		}
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
