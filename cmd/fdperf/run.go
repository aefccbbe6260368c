package main

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	dhyfd "repro"
	"repro/internal/check"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/partition"
)

const (
	mb = 1 << 20 // "MB" in every metric is 2^20 bytes

	setups  = 3  // set-ups per run; setup_s is their median
	warmups = 2  // untimed jobs per set-up
	minJobs = 40 // timed jobs per run at least, so p75 has 10 samples above it
	inputs  = 16 // generated inputs per run, cycled by the jobs
)

// runOpts are the knobs of one workload run.
type runOpts struct {
	seed    int64
	seconds float64 // timed jobs run at least this long
	trace   bool    // report per-layer metrics instead of end-to-end ones
	smoke   bool    // 1/20 size, one set-up, two jobs, no pins
	spans   string  // append the trace's spans here as JSON lines
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, perLayer those of a traced
// one. BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"job_s.p50", "s"}, {"job_s.p75", "s"}, {"cpu_s_per_job", "s"},
	{"alloc_mb_per_job", "MB"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
}

var perLayer = []metricDef{
	{"relation.ingest_s", "s"}, {"relation.ingest_mb_per_s", "MB/s"},
	{"relation.columns_paged", "count"}, {"relation.page_faults", "count"},
	{"discover.search_s", "s"}, {"discover.other_s", "s"},
	{"partition.singles_s", "s"}, {"partition.built", "count"},
	{"partition.refinements", "count"}, {"partition.rows_scanned", "count"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"},
	{"sampling.comparisons", "count"}, {"sampling.non_fds", "count"},
	{"core.ddm_refreshes", "count"}, {"validate.candidates", "count"},
	{"validate.invalidated", "count"}, {"validate.useful_ratio", "ratio"},
	{"cover.canonical_s", "s"}, {"cover.fds_out", "count"},
	{"ranking.rank_s", "s"}, {"ranking.lhs_groups", "count"}, {"ranking.reuse_ratio", "ratio"},
	{"check.verify_s", "s"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_s", "s"},
	{"job.unattributed_s", "s"}, {"job.unattributed_share", "ratio"},
	{"trace.overhead_s", "s"},
}

// usage is a reading of the process's resource counters.
type usage struct {
	cpu   float64
	alloc uint64
	gc    gcSample
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuSeconds(), alloc: ms.TotalAlloc, gc: readGC()}
}

// jobRecord is one timed job's measurements. Times are as measured;
// scale turns them into reference seconds (see refSeconds).
type jobRecord struct {
	input   int
	seconds float64
	scale   float64
	traced  bool
	cpu     float64 // process CPU seconds
	alloc   float64 // MB allocated
	rss     float64 // peak RSS in MB
	gc      gcSample
	counts  map[string]float64 // traced jobs: counts from the job's run reports
}

// runWorkload generates the workload's inputs, sets up, runs the timed
// jobs as a closed loop, checks the outputs and composes the metrics.
func runWorkload(ctx context.Context, w workload, o runOpts) (summary, error) {
	dir, err := os.MkdirTemp("", "fdperf-"+w.name+"-*")
	if err != nil {
		return summary{}, err
	}
	defer os.RemoveAll(dir)
	nInputs, nSetups, jobsAtLeast, budget := inputs, setups, minJobs, time.Duration(o.seconds*float64(time.Second))
	if o.smoke {
		nInputs, nSetups, jobsAtLeast, budget = 2, 1, 2, 0
	}
	if o.trace {
		// Every input runs at least once traced and once untraced.
		jobsAtLeast = max(jobsAtLeast, 2*nInputs)
	}
	specs, err := w.specs(o.seed, nInputs, o.smoke)
	if err != nil {
		return summary{}, err
	}
	csvs := make([]string, nInputs)
	for i := range csvs {
		csvs[i] = filepath.Join(dir, fmt.Sprintf("%s-%d.csv", w.name, i))
	}

	// Set-up: write the CSV files and run the warm-up jobs, several times
	// over; the timed jobs read the files the last set-up wrote. Each
	// set-up is scaled by the mean of kernel runs before and after it.
	ref := newRefKernel()
	var setupTimes []float64
	for k := 0; k < nSetups; k++ {
		before := ref.scale()
		t0 := time.Now()
		for i, spec := range specs {
			if err := writeCSV(csvs[i], spec); err != nil {
				return summary{}, err
			}
		}
		for i := 0; i < warmups; i++ {
			if _, err := w.job(ctx, &jobEnv{csv: csvs[i%nInputs], dir: dir}); err != nil {
				return summary{}, fmt.Errorf("%s warm-up: %w", w.name, err)
			}
		}
		d := time.Since(t0).Seconds()
		setupTimes = append(setupTimes, d*(before+ref.scale())/2)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer(w.name)
	}

	var (
		jobs      []jobRecord
		firsts    = make([]output, nInputs) // each input's first output
		refs      = make([]string, nInputs) // and its SHA
		attempted int
		failed    int
	)
	// checkJob counts a job and compares its output with the first output
	// of the same input.
	checkJob := func(job, in int, out output, err error) {
		attempted++
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "fdperf: %s job %d: %v\n", w.name, job, err)
		case refs[in] == "":
			firsts[in], refs[in] = out, out.sha()
		default:
			if sha := out.sha(); sha != refs[in] {
				failed++
				fmt.Fprintf(os.Stderr, "fdperf: %s job %d: output SHA %s differs from input %d's first %s\n", w.name, job, sha, in, refs[in])
			}
		}
	}
	start := time.Now()
	for n := 0; n < jobsAtLeast || time.Since(start) < budget; n++ {
		if err := ctx.Err(); err != nil {
			return summary{}, err
		}
		// Jobs cycle through the inputs. A traced run runs each input
		// twice in a row, traced then untraced, so the tracing overhead is
		// measured on the same input under the same conditions.
		in, traced := n%nInputs, false
		if o.trace {
			in, traced = (n/2)%nInputs, n%2 == 0
		}
		e := jobEnv{csv: csvs[in], dir: dir, job: n + 1}
		// Every job starts from a collected heap handed back to the OS,
		// as a fresh fddiscover or fdrank process would, so its peak RSS
		// and its GC work are its own and not left over from the job
		// before it. FreeOSMemory runs a full collection first. The
		// reference kernel then runs right before the job.
		debug.FreeOSMemory()
		scale := ref.scale()
		resetPeakRSS()
		if traced {
			e.tr = tr
			e.root = tr.start(e.job, 0, "job")
		}
		u0 := readUsage()
		t0 := time.Now()
		out, err := w.job(ctx, &e)
		d := time.Since(t0).Seconds()
		e.tr.end(e.root)
		u1 := readUsage()
		rec := jobRecord{
			input: in, seconds: d, scale: scale, traced: traced, cpu: u1.cpu - u0.cpu,
			alloc: float64(u1.alloc-u0.alloc) / mb, rss: peakRSSMB(),
			gc: gcSample{cycles: u1.gc.cycles - u0.gc.cycles, cpu: u1.gc.cpu - u0.gc.cpu},
		}
		checkJob(e.job, in, out, err) // outside the timed region
		if traced && err == nil {
			rec.counts = countValues(out)
		}
		jobs = append(jobs, rec)
	}

	// Whole-output checks, each counted as one attempt.
	fail := func(what string, err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "fdperf: %s %s check: %v\n", w.name, what, err)
		}
	}
	if o.seed == 0 && !o.smoke {
		fail("pin", checkPin(w, firsts, refs))
	}
	var (
		verifyTimes []float64
		probeRel    *dhyfd.Relation // the first input with an output
		probeOut    output
	)
	for i, first := range firsts {
		if refs[i] == "" {
			fail("output", fmt.Errorf("input %d produced no output", i))
			continue
		}
		rel, err := dhyfd.ReadCSVFile(csvs[i], dhyfd.Options{})
		if err != nil {
			return summary{}, err
		}
		scale := ref.scale()
		t0 := time.Now()
		vid := tr.start(0, 0, "check.verify")
		err = verify(ctx, rel, first.cover)
		tr.end(vid)
		verifyTimes = append(verifyTimes, time.Since(t0).Seconds()*scale)
		fail("verify", err)
		if w.check != nil {
			fail("output", w.check(ctx, rel, first))
		}
		if probeRel == nil {
			probeRel, probeOut = rel, first
		}
	}

	if err := ctx.Err(); err != nil {
		return summary{}, err
	}
	s := summary{Correct: failed == 0, Attempted: attempted, Failed: failed}
	printWall(w.name, jobs)
	if !o.trace {
		s.Metrics, err = compose(endToEnd, endToEndValues(jobs, nInputs, setupTimes))
		return s, err
	}
	if probeRel == nil {
		return summary{}, fmt.Errorf("%s: no job produced an output to probe", w.name)
	}
	probes := map[string]float64{"check.verify_s": median(verifyTimes)}
	if err := runProbes(ctx, tr, ref, probeRel, probeOut, probes); err != nil {
		return summary{}, err
	}
	if o.spans != "" {
		if err := appendSpans(o.spans, tr.spans); err != nil {
			return summary{}, err
		}
	}
	sizes := make([]float64, nInputs)
	for i, p := range csvs {
		st, err := os.Stat(p)
		if err != nil {
			return summary{}, err
		}
		sizes[i] = float64(st.Size()) / mb
	}
	printSelfTimes(w.name, tr.spans)
	s.Metrics, err = compose(perLayer, layerValues(jobs, tr.spans, probes, sizes))
	return s, err
}

// verify runs a full, unsampled check.VerifyCover of fds on rel and fails
// on any violated FD. A private PLI cache lets FDs sharing LHS prefixes
// share partitions.
func verify(ctx context.Context, rel *dhyfd.Relation, fds []dhyfd.FD) error {
	cache := partition.NewCache(256<<20, nil)
	defer cache.Close()
	rep, err := check.VerifyCover(ctx, rel, fds, check.VerifyOptions{SampleRows: -1, Cache: cache})
	if err != nil {
		return err
	}
	if rep.Violated > 0 {
		return fmt.Errorf("%d of %d FDs violated", rep.Violated, rep.Checked)
	}
	return nil
}

// checkPin compares the seed-0 outputs with the workload's pin: the SHA-256
// of the inputs' output SHAs, one per line, and the total output size.
func checkPin(w workload, firsts []output, refs []string) error {
	count := 0
	for _, f := range firsts {
		count += f.size()
	}
	sum := sha256.Sum256([]byte(strings.Join(refs, "\n")))
	if sha := hex.EncodeToString(sum[:]); sha != w.pinSHA || count != w.pinCount {
		return fmt.Errorf("outputs %s with %d entries, pinned %s with %d", sha, count, w.pinSHA, w.pinCount)
	}
	return nil
}

// runProbes times the layer probes on one input's check relation and
// output, adding them to probes: the PLI bootstrap on a width-1 pool
// (median of 5), and the canonical cover and an uncached Rank of the
// output (median of 3).
func runProbes(ctx context.Context, tr *tracer, ref *refKernel, rel *dhyfd.Relation, out output, probes map[string]float64) error {
	probe := func(metric, span string, n int, fn func() error) error {
		t, err := timeMedian(ref, n, func() error {
			id := tr.start(0, 0, span)
			defer tr.end(id)
			return fn()
		})
		if err != nil {
			return fmt.Errorf("%s probe: %w", span, err)
		}
		probes[metric] = t
		return nil
	}
	if err := probe("partition.singles_s", "partition.singles", 5, func() error {
		_, _, err := partition.Singles(ctx, engine.NewPool(1), rel.Cols, rel.Cards, 0, nil, nil)
		return err
	}); err != nil {
		return err
	}
	if err := probe("cover.canonical_s", "cover.canonical", 3, func() error {
		dhyfd.CanonicalCover(rel.NumCols(), out.base)
		return nil
	}); err != nil {
		return err
	}
	return probe("ranking.rank_s", "ranking.rank", 3, func() error {
		_, _, err := dhyfd.Rank(ctx, rel, out.cover, dhyfd.WithWorkers(1))
		return err
	})
}

// endToEndValues composes the untraced run's metrics. Job time, in
// reference seconds, is reported as its median and nearest-rank p75 over
// all timed jobs, and CPU as the mean per job, so GC work that lands in
// some jobs and not others counts in full. Allocation and peak RSS repeat
// for a given input, and a minority of inputs of every shape is much
// heavier than the rest, so both are medians over the inputs of each
// input's median job.
func endToEndValues(jobs []jobRecord, nInputs int, setupTimes []float64) map[string]float64 {
	times := make([]float64, len(jobs))
	var cpu float64
	for i, j := range jobs {
		times[i] = j.seconds * j.scale
		cpu += j.cpu * j.scale
	}
	sort.Float64s(times)
	return map[string]float64{
		"job_s.p50":        median(times),
		"job_s.p75":        quantile(times, 0.75),
		"cpu_s_per_job":    cpu / float64(len(jobs)),
		"alloc_mb_per_job": inputMedian(jobs, nInputs, func(j jobRecord) float64 { return j.alloc }),
		"peak_rss_mb":      inputMedian(jobs, nInputs, func(j jobRecord) float64 { return j.rss }),
		"setup_s":          median(setupTimes),
	}
}

// inputMedian is the median over the inputs of each input's median value.
func inputMedian(jobs []jobRecord, nInputs int, value func(jobRecord) float64) float64 {
	per := make([][]float64, nInputs)
	for _, j := range jobs {
		per[j.input] = append(per[j.input], value(j))
	}
	meds := make([]float64, 0, nInputs)
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return median(meds)
}

// countValues reads one job's per-layer counts from the run reports
// Discover and Rank returned.
func countValues(out output) map[string]float64 {
	st, rk := out.stats, out.rank
	hits := float64(st.CacheHits + rk.CacheHits)
	misses := float64(st.CacheMisses + rk.CacheMisses)
	cand := float64(st.CandidatesValidated)
	return map[string]float64{
		"relation.columns_paged": float64(st.ColumnsPaged),
		"relation.page_faults":   float64(st.ColumnPageFaults),
		"partition.built":        float64(st.PartitionsBuilt),
		"partition.refinements":  float64(st.PartitionsRefined),
		"partition.rows_scanned": float64(st.RowsScanned),
		"cache.hits":             hits,
		"cache.misses":           misses,
		"cache.evictions":        float64(st.CacheEvictions + rk.CacheEvictions),
		"cache.hit_ratio":        ratio(hits, hits+misses),
		"sampling.comparisons":   float64(st.Counters["sampling_comparisons"]),
		"sampling.non_fds":       float64(st.NonFDs),
		"core.ddm_refreshes":     float64(st.Counters["ddm_refreshes"]),
		"validate.candidates":    cand,
		"validate.invalidated":   float64(st.Invalidated),
		"validate.useful_ratio":  ratio(cand-float64(st.Invalidated), cand),
		"cover.fds_out":          float64(out.size()),
		"ranking.lhs_groups":     float64(rk.Groups),
		"ranking.reuse_ratio":    ratio(float64(rk.PartitionsReused), float64(rk.PartitionsReused+rk.PartitionsBuilt)),
	}
}

// layerValues composes the traced run's metrics. Span self times and
// counts are per-job values, reported as medians over the traced jobs;
// the runtime counters are means over all timed jobs; the tracing overhead
// is the median difference between a traced job and the untraced job on
// the same input that follows it. Times are in reference seconds, each
// scaled by its own job's kernel run.
func layerValues(jobs []jobRecord, spans []span, probes map[string]float64, csvMB []float64) map[string]float64 {
	layers := jobLayers(spans)
	phases := make(map[int]float64)
	for _, s := range spans {
		if s.durOnly {
			phases[s.Job] += time.Duration(s.DurNs).Seconds()
		}
	}
	perJob := make(map[string][]float64)
	var overhead []float64
	var gcCycles, gcCPU float64
	for i, j := range jobs {
		gcCycles += float64(j.gc.cycles)
		gcCPU += j.gc.cpu * j.scale
		if !j.traced {
			continue
		}
		if i+1 < len(jobs) {
			next := jobs[i+1]
			overhead = append(overhead, j.seconds*j.scale-next.seconds*next.scale)
		}
		l := layers[i+1]
		ingest := l["relation.ingest"].Seconds() * j.scale
		add := func(name string, x float64) { perJob[name] = append(perJob[name], x) }
		add("relation.ingest_s", ingest)
		add("relation.ingest_mb_per_s", ratio(csvMB[j.input], ingest))
		add("discover.search_s", phases[i+1]*j.scale)
		add("discover.other_s", l["discover"].Seconds()*j.scale)
		add("job.unattributed_s", l["job"].Seconds()*j.scale)
		add("job.unattributed_share", ratio(l["job"].Seconds(), j.seconds))
		for name, x := range j.counts {
			add(name, x)
		}
	}
	n := float64(len(jobs))
	v := map[string]float64{
		"runtime.gc_cycles": gcCycles / n,
		"runtime.gc_cpu_s":  gcCPU / n,
		"trace.overhead_s":  median(overhead),
	}
	for name, xs := range perJob {
		v[name] = median(xs)
	}
	for name, x := range probes {
		v[name] = x
	}
	return v
}

// compose attaches units to values, requiring exactly the declared names.
func compose(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(values), len(defs))
	}
	return out, nil
}

// printWall prints the run's unscaled median job time and median kernel
// time, the two numbers the reported job times are derived from.
func printWall(workload string, jobs []jobRecord) {
	times := make([]float64, len(jobs))
	kernel := make([]float64, len(jobs))
	for i, j := range jobs {
		times[i] = j.seconds
		kernel[i] = refSeconds / j.scale
	}
	fmt.Printf("%-13s wall time per job %.6f s, reference kernel %.6f s (medians of %d; reported times are scaled to a %g s kernel)\n",
		workload, median(times), median(kernel), len(jobs), refSeconds)
}

// printSelfTimes prints each layer's median wall self time over the traced
// jobs and its share of the median traced job, then the probes.
func printSelfTimes(workload string, spans []span) {
	byJob := jobLayers(spans)
	perName := make(map[string][]float64)
	var jobTimes []float64
	for job, layers := range byJob {
		if job == 0 {
			continue
		}
		for name, d := range layers {
			perName[name] = append(perName[name], d.Seconds())
		}
	}
	for _, s := range spans {
		if s.Job > 0 && s.Name == "job" {
			jobTimes = append(jobTimes, time.Duration(s.DurNs).Seconds())
		}
	}
	names := make([]string, 0, len(perName))
	for name := range perName {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return median(perName[names[a]]) > median(perName[names[b]]) })
	job := median(jobTimes)
	fmt.Printf("%s wall self time per traced job (median of %d):\n", workload, len(jobTimes))
	for _, name := range names {
		m := median(perName[name])
		label := name
		if name == "job" {
			label = "job.unattributed"
		}
		fmt.Printf("  %-22s %10.6f s %6.1f%%\n", label, m, 100*ratio(m, job))
	}
	probes := make(map[string][]float64)
	for _, s := range spans {
		if s.Job == 0 {
			probes[s.Name] = append(probes[s.Name], time.Duration(s.DurNs).Seconds())
		}
	}
	pnames := make([]string, 0, len(probes))
	for name := range probes {
		pnames = append(pnames, name)
	}
	sort.Strings(pnames)
	for _, name := range pnames {
		fmt.Printf("  probe %-16s %10.6f s (median of %d)\n", name, median(probes[name]), len(probes[name]))
	}
}

// printMetrics prints one line per metric in declaration order.
func printMetrics(workload string, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		m := ms[d.name]
		fmt.Printf("%-13s %-26s %14.6g %s\n", workload, d.name, m.Value, m.Unit)
	}
}

// writeCSV streams the spec to path as CSV with a header row.
func writeCSV(path string, spec dataset.Spec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	err = w.Write(spec.Names())
	if err == nil {
		err = dataset.Stream(spec, 0, func(block [][]string) error { return w.WriteAll(block) })
	}
	w.Flush()
	if err == nil {
		err = w.Error()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
