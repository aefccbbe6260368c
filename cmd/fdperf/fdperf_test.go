package main

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// TestSmoke runs every workload at 1/20 size with two jobs, untraced and
// traced, and requires every output check to pass and exactly the declared
// metrics to come back.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass skipped in -short mode")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			s, err := runWorkload(context.Background(), w, runOpts{smoke: true, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, traced, s.Correct, s.Failed, s.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(s.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(s.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := s.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, traced, d.name, m)
				}
			}
		}
	}
}

// TestBenchmarkJSONDeclaresMetrics requires every metric fdperf prints to
// be declared in BENCHMARK.json with the same unit, and the other way
// round, and every name to be well formed.
func TestBenchmarkJSONDeclaresMetrics(t *testing.T) {
	bf, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, declared []boundDef) {
		units := make(map[string]string)
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		if len(units) != len(declared) || len(declared) != len(defs) {
			t.Errorf("%s: fdperf prints %d metrics, BENCHMARK.json declares %d (%d distinct)", kind, len(defs), len(declared), len(units))
		}
		for _, d := range defs {
			if !name.MatchString(d.name) {
				t.Errorf("%s: malformed metric name %q", kind, d.name)
			}
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s [%s] is declared as %q (declared: %v)", kind, d.name, d.unit, u, ok)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, fdperf runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(bf.Workloads) && bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, fdperf %q", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.pinSHA) != 64 || w.pinCount <= 0 {
			t.Errorf("workload %s has no seed-0 pin", w.name)
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", d.Name, d.Bound, d.Better)
		}
	}
}

// TestQuantileP75LeavesTen pins the percentile helper: at n = 40 the p75
// sample has exactly 10 samples above it.
func TestQuantileP75LeavesTen(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // unsorted on purpose
	}
	s := sortedCopy(xs)
	p75 := quantile(s, 0.75)
	above := 0
	for _, x := range xs {
		if x > p75 {
			above++
		}
	}
	if above != 10 {
		t.Errorf("p75 = %v leaves %d samples above it, want 10", p75, above)
	}
	if got := median(xs); got != 20.5 {
		t.Errorf("median = %v, want 20.5", got)
	}
}

// TestQuartilesExclusive matches Python's statistics.quantiles(n=4).
func TestQuartilesExclusive(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestRefKernelAllocatesNothing keeps the reference kernel independent of
// the heap a job leaves behind.
func TestRefKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	var scale float64
	if allocs := testing.AllocsPerRun(3, func() { scale = k.scale() }); allocs != 0 {
		t.Errorf("reference kernel allocates %v times per run", allocs)
	}
	if scale <= 0 || math.IsInf(scale, 0) {
		t.Errorf("scale = %v", scale)
	}
}

// TestSelfTimeNeverNegative covers overlapping children, children running
// past their parent and duration-only children longer than their parent.
func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []span{
		{Job: 1, ID: 1, Name: "job", StartNs: 0, EndNs: 100, DurNs: 100},
		{Job: 1, ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30, DurNs: 20},
		{Job: 1, ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50, DurNs: 30},
		{Job: 1, ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 130, DurNs: 40},
		{Job: 1, ID: 5, Parent: 2, Name: "phase", DurNs: 50, durOnly: true},
		{Job: 1, ID: 6, Parent: 3, Name: "phase", DurNs: 10, durOnly: true},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 0, 20, 40, 50, 10}
	for i, s := range self {
		if s < 0 {
			t.Errorf("span %s: negative self time %v", spans[i].Name, s)
		}
		if int64(s) != want[i] {
			t.Errorf("span %d %s: self %d, want %d", spans[i].ID, spans[i].Name, s, want[i])
		}
	}
}

// TestCompareVerdicts exercises each verdict of the paired-run rule.
func TestCompareVerdicts(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	cases := []struct {
		name      string
		base, new []float64
		lower     bool
		want      string
	}{
		{"faster", base, scale(0.8), true, improved},
		{"slower", base, scale(1.2), true, regressed},
		{"same", base, scale(1.01), true, withinBound},
		{"noisy", base, wide, true, unresolved},
		{"higher-better slower", base, scale(0.8), false, regressed},
	}
	for _, c := range cases {
		if got := compareRuns(c.base, c.new, 0.1, c.lower).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRecordCarriesSummaryKeys keeps the -o line a superset of the summary
// line the benchmark contract reads.
func TestRecordCarriesSummaryKeys(t *testing.T) {
	s := summary{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {Value: 1.5, Unit: "s"}}}
	line, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
		t.Errorf("summary keys %v, want %v", got, want)
	}
	path := t.TempDir() + "/runs.jsonl"
	if err := appendRecord(path, record{Workload: "tall-pli", summary: s}); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(path)
	if err != nil || len(recs) != 1 || recs[0].Workload != "tall-pli" || recs[0].Metrics["setup_s"].Value != 1.5 {
		t.Errorf("round trip: %+v, %v", recs, err)
	}
}
