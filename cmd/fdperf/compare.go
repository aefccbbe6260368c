package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json fdperf reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmark reads BENCHMARK.json from path, or when path is empty from
// the working directory or the nearest parent holding one.
func loadBenchmark(path string) (benchmarkFile, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return benchmarkFile{}, err
		}
		for {
			p := filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return benchmarkFile{}, errors.New("BENCHMARK.json not found in or above the working directory")
			}
			dir = parent
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return benchmarkFile{}, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return benchmarkFile{}, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRecords reads the JSON lines an -o file holds.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// values collects one end-to-end metric of one workload across a set of
// untraced runs, in file order.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// Verdicts of one comparison row.
const (
	improved    = "improved"
	regressed   = "regressed"
	withinBound = "within-bound"
	unresolved  = "unresolved"
)

// comparison is one workload × metric row.
type comparison struct {
	base, cand [3]float64 // quartiles
	nBase      int
	nCand      int
	change     float64 // relative median change, positive = worse
	winFrac    float64 // share of paired runs the candidate won
	verdict    string
}

// compareRuns applies the paired-run rule to one metric: the candidate
// improved when it wins at least nine tenths of the pairs (the i-th base
// run against the i-th candidate run; ties count for neither) and the
// medians differ by more than the base's quartile spread; it regressed
// when its median is worse than the base's by more than bound; the row is
// unresolved when either side's quartile spread is wider than the bound,
// unless every candidate run reads better than every base run.
func compareRuns(base, cand []float64, bound float64, lowerBetter bool) comparison {
	c := comparison{nBase: len(base), nCand: len(cand)}
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.cand[0], c.cand[1], c.cand[2] = quartiles(cand)
	sign := 1.0 // worse is positive
	if !lowerBetter {
		sign = -1
	}
	c.change = sign * ratio(c.cand[1]-c.base[1], c.base[1])
	pairs := min(len(base), len(cand))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(cand[i]-base[i]) < 0 {
			wins++
		}
	}
	c.winFrac = ratio(float64(wins), float64(pairs))
	baseSpread := c.base[2] - c.base[0]
	wide := ratio(baseSpread, c.base[1]) > bound || ratio(c.cand[2]-c.cand[0], c.cand[1]) > bound
	switch {
	case c.change < 0 && c.winFrac >= 0.9 && math.Abs(c.cand[1]-c.base[1]) > baseSpread:
		c.verdict = improved
	case c.change > bound:
		c.verdict = regressed
	case wide && !allBetter(base, cand, sign):
		c.verdict = unresolved
	default:
		c.verdict = withinBound
	}
	return c
}

// allBetter reports whether every candidate value beats every base value.
func allBetter(base, cand []float64, sign float64) bool {
	for _, a := range base {
		for _, b := range cand {
			if sign*(b-a) >= 0 {
				return false
			}
		}
	}
	return true
}

// runCompare prints one row per workload and end-to-end metric for each
// candidate file against the first (base) file and reports whether any
// row regressed.
func runCompare(files []string) (bool, error) {
	if len(files) < 2 {
		return false, errors.New("-compare needs a base run file and at least one candidate run file")
	}
	bf, err := loadBenchmark("")
	if err != nil {
		return false, err
	}
	base, err := readRecords(files[0])
	if err != nil {
		return false, err
	}
	anyRegressed := false
	for _, file := range files[1:] {
		cand, err := readRecords(file)
		if err != nil {
			return false, err
		}
		fmt.Printf("base %s vs %s (median [q1 q3] of n runs; change > 0 is worse)\n", files[0], file)
		fmt.Printf("%-13s %-17s %-34s %-34s %8s %5s  %s\n", "workload", "metric", "base", "candidate", "change", "wins", "verdict")
		for _, w := range bf.Workloads {
			for _, m := range bf.EndToEnd {
				a, b := values(base, w.Name, m.Name), values(cand, w.Name, m.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				c := compareRuns(a, b, m.Bound, m.Better != "higher")
				if c.verdict == regressed {
					anyRegressed = true
				}
				fmt.Printf("%-13s %-17s %-34s %-34s %+7.1f%% %5.2f  %s (bound %.0f%%)\n",
					w.Name, m.Name, side(c.base, c.nBase, m.Unit), side(c.cand, c.nCand, m.Unit),
					100*c.change, c.winFrac, c.verdict, 100*m.Bound)
			}
		}
	}
	return anyRegressed, nil
}

func side(q [3]float64, n int, unit string) string {
	return fmt.Sprintf("%.4g %s [%.4g %.4g] n=%d", q[1], unit, q[0], q[2], n)
}
