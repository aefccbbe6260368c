package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/hyfd"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// Fig6Point is one point of Figure 6: DHyFD runtime at one
// efficiency–inefficiency ratio.
type Fig6Point struct {
	Dataset     string
	Ratio       float64
	Elapsed     time.Duration
	Refinements int
	FDs         int
}

// Fig6Ratios is the ratio sweep of Figure 6.
var Fig6Ratios = []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 8}

// Fig6 reproduces Figure 6: DHyFD discovery time on the weather-like and
// uniprot-like shapes across efficiency–inefficiency ratios. The paper's
// finding: ~3 is a robust choice.
func Fig6(ctx context.Context, w io.Writer, p Params) []Fig6Point {
	p.fillDefaults()
	fmt.Fprintln(w, "Figure 6 — DHyFD time vs efficiency–inefficiency ratio")
	var out []Fig6Point
	for _, name := range []string{"weather", "uniprot"} {
		b, err := dataset.ByName(name)
		if err != nil {
			panic(err)
		}
		r := b.Generate(p.rows(b.DefaultRows), b.DefaultCols)
		tw := newTable(w)
		fmt.Fprintf(tw, "%s (%dx%d)\tratio\ttime (s)\trefinements\n", name, r.NumRows(), r.NumCols())
		for _, ratio := range Fig6Ratios {
			start := time.Now()
			fds, rs, _ := core.Run(ctx, r, core.Config{Ratio: ratio})
			elapsed := time.Since(start)
			refreshes := int(rs.Counters["ddm_refreshes"])
			pt := Fig6Point{Dataset: name, Ratio: ratio, Elapsed: elapsed,
				Refinements: refreshes, FDs: len(fds)}
			fmt.Fprintf(tw, "\t%.1f\t%.3f\t%d\n", ratio, elapsed.Seconds(), refreshes)
			out = append(out, pt)
		}
		tw.Flush()
	}
	return out
}

// Fig7Point compares HyFD and DHyFD memory at one fragment size.
type Fig7Point struct {
	Dataset      string
	Rows, Cols   int
	HyFDAllocMB  float64
	DHyFDAllocMB float64
	HyFDTime     time.Duration
	DHyFDTime    time.Duration
	DynPartRows  int // DHyFD's peak dynamic-partition payload
}

// Fig7 reproduces Figure 7: memory used by HyFD and DHyFD on weather
// fragments with growing rows (left) and diabetic fragments with growing
// columns (right). DHyFD trades memory for time where the ratio fires.
func Fig7(ctx context.Context, w io.Writer, p Params) []Fig7Point {
	p.fillDefaults()
	fmt.Fprintln(w, "Figure 7 — memory vs rows (weather) and vs columns (diabetic)")
	var out []Fig7Point

	weather, _ := dataset.ByName("weather")
	baseRows := p.rows(weather.DefaultRows)
	tw := newTable(w)
	fmt.Fprintf(tw, "weather\trows\tHyFD MB\tDHyFD MB\tHyFD s\tDHyFD s\tdyn part rows\n")
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		rows := int(float64(baseRows) * frac)
		r := weather.Generate(rows, weather.DefaultCols)
		out = append(out, fig7Point(ctx, tw, "weather", r))
	}
	tw.Flush()

	diabetic, _ := dataset.ByName("diabetic")
	rows := p.rows(diabetic.DefaultRows) / 2
	tw = newTable(w)
	fmt.Fprintf(tw, "diabetic\tcols\tHyFD MB\tDHyFD MB\tHyFD s\tDHyFD s\tdyn part rows\n")
	for cols := 10; cols <= diabetic.DefaultCols; cols += 5 {
		r := diabetic.Generate(rows, cols)
		out = append(out, fig7Point(ctx, tw, "diabetic", r))
	}
	tw.Flush()
	return out
}

func fig7Point(ctx context.Context, tw io.Writer, name string, r *relation.Relation) Fig7Point {
	pt := Fig7Point{Dataset: name, Rows: r.NumRows(), Cols: r.NumCols()}

	alloc := func(f func()) float64 {
		var before, after memSnap
		before.read()
		f()
		after.read()
		return float64(after.total-before.total) / (1 << 20)
	}
	pt.HyFDAllocMB = alloc(func() {
		start := time.Now()
		_, _, _ = hyfd.Run(ctx, r, hyfd.Config{})
		pt.HyFDTime = time.Since(start)
	})
	pt.DHyFDAllocMB = alloc(func() {
		start := time.Now()
		_, rs, _ := core.Run(ctx, r, core.Config{})
		pt.DHyFDTime = time.Since(start)
		pt.DynPartRows = int(rs.Counters["peak_dyn_rows"])
	})
	if pt.Dataset == "weather" {
		fmt.Fprintf(tw, "\t%d\t%.0f\t%.0f\t%.3f\t%.3f\t%d\n",
			pt.Rows, pt.HyFDAllocMB, pt.DHyFDAllocMB,
			pt.HyFDTime.Seconds(), pt.DHyFDTime.Seconds(), pt.DynPartRows)
	} else {
		fmt.Fprintf(tw, "\t%d\t%.0f\t%.0f\t%.3f\t%.3f\t%d\n",
			pt.Cols, pt.HyFDAllocMB, pt.DHyFDAllocMB,
			pt.HyFDTime.Seconds(), pt.DHyFDTime.Seconds(), pt.DynPartRows)
	}
	return pt
}

// Fig8Cell is one mark of Figure 8: the fastest algorithm on a fragment.
type Fig8Cell struct {
	Dataset    string
	Rows, Cols int
	Winner     string
	Times      map[string]RunResult
}

// Fig8Algorithms are the contenders of the quantitative experiment.
var Fig8Algorithms = []string{"TANE", "FDEP2", "HyFD", "DHyFD"}

// Fig8 reproduces Figure 8: the best performer per (rows × columns)
// fragment of weather and diabetic. Expected shape: FDEP wins at few rows
// and many columns, TANE only at few columns, DHyFD as both grow.
func Fig8(ctx context.Context, w io.Writer, p Params) []Fig8Cell {
	p.fillDefaults()
	fmt.Fprintln(w, "Figure 8 — best performer per fragment (rows x cols)")
	var out []Fig8Cell
	for _, name := range []string{"weather", "diabetic"} {
		b, _ := dataset.ByName(name)
		rowSteps := []float64{0.05, 0.25, 0.5, 1.0}
		colSteps := []int{6, 10, 14, b.DefaultCols}
		tw := newTable(w)
		fmt.Fprintf(tw, "%s\trows\tcols\twinner\n", name)
		for _, rf := range rowSteps {
			for _, cols := range colSteps {
				if cols > b.PaperCols {
					cols = b.PaperCols
				}
				rows := int(float64(p.rows(b.DefaultRows)) * rf)
				r := b.Generate(rows, cols)
				cell := Fig8Cell{Dataset: name, Rows: rows, Cols: cols, Times: map[string]RunResult{}}
				bestTime := time.Duration(1<<62 - 1)
				for _, a := range Fig8Algorithms {
					res := RunCached(ctx, a, r, p.TimeLimit, p.CacheBytes)
					cell.Times[a] = res
					if !res.TimedOut && res.Elapsed < bestTime {
						bestTime = res.Elapsed
						cell.Winner = a
					}
				}
				fmt.Fprintf(tw, "\t%d\t%d\t%s\n", rows, cols, cell.Winner)
				out = append(out, cell)
			}
		}
		tw.Flush()
	}
	return out
}

// Fig9Point is one point of the scalability curves.
type Fig9Point struct {
	Dataset    string
	Rows, Cols int
	FDs        int
	Times      map[string]RunResult
}

// Fig9 reproduces Figure 9: row scalability on weather (left) and column
// scalability on diabetic fragments (right), with the number of valid FDs
// as the second axis of the column chart.
func Fig9(ctx context.Context, w io.Writer, p Params) []Fig9Point {
	p.fillDefaults()
	var out []Fig9Point

	fmt.Fprintln(w, "Figure 9 (left) — row scalability on weather")
	weather, _ := dataset.ByName("weather")
	tw := newTable(w)
	fmt.Fprintf(tw, "rows\tTANE\tFDEP2\tHyFD\tDHyFD\n")
	maxRows := p.rows(weather.DefaultRows)
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		rows := int(float64(maxRows) * frac)
		r := weather.Generate(rows, weather.DefaultCols)
		pt := Fig9Point{Dataset: "weather", Rows: rows, Cols: r.NumCols(), Times: map[string]RunResult{}}
		for _, a := range Fig8Algorithms {
			res := RunCached(ctx, a, r, p.TimeLimit, p.CacheBytes)
			pt.Times[a] = res
			if !res.TimedOut && res.FDs > pt.FDs {
				pt.FDs = res.FDs
			}
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n", rows,
			pt.Times["TANE"].Time(), pt.Times["FDEP2"].Time(),
			pt.Times["HyFD"].Time(), pt.Times["DHyFD"].Time())
		out = append(out, pt)
	}
	tw.Flush()

	fmt.Fprintln(w, "Figure 9 (right) — column scalability on diabetic fragments")
	diabetic, _ := dataset.ByName("diabetic")
	rows := p.rows(2000)
	tw = newTable(w)
	fmt.Fprintf(tw, "cols\tTANE\tFDEP2\tHyFD\tDHyFD\t#FD\n")
	for cols := 8; cols <= diabetic.DefaultCols; cols += 4 {
		r := diabetic.Generate(rows, cols)
		pt := Fig9Point{Dataset: "diabetic", Rows: rows, Cols: cols, Times: map[string]RunResult{}}
		for _, a := range Fig8Algorithms {
			res := RunCached(ctx, a, r, p.TimeLimit, p.CacheBytes)
			pt.Times[a] = res
			if !res.TimedOut && res.FDs > pt.FDs {
				pt.FDs = res.FDs
			}
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%d\n", cols,
			pt.Times["TANE"].Time(), pt.Times["FDEP2"].Time(),
			pt.Times["HyFD"].Time(), pt.Times["DHyFD"].Time(), pt.FDs)
		out = append(out, pt)
	}
	tw.Flush()
	return out
}

// Fig10Result is one chart of Figure 10: the redundancy histogram of a
// data set's canonical cover, plus the ranking time and run report.
type Fig10Result struct {
	Dataset  string
	Buckets  []ranking.Bucket
	Elapsed  time.Duration
	CoverFDs int
	Stats    ranking.Stats
}

// Fig10Datasets are the bigger incomplete data sets the paper charts.
var Fig10Datasets = []string{"ncvoter", "hepatitis", "horse", "plista", "flight", "uniprot", "diabetic"}

// Fig10 reproduces Figure 10: how many FDs cause how much redundancy, and
// the time to compute all redundant occurrences from the canonical cover.
func Fig10(ctx context.Context, w io.Writer, p Params) []Fig10Result {
	p.fillDefaults()
	fmt.Fprintln(w, "Figure 10 — FDs per redundancy bucket (canonical covers)")
	names := Fig10Datasets
	if p.Quick {
		names = []string{"ncvoter", "hepatitis"}
	}
	var out []Fig10Result
	for _, name := range names {
		b, _ := dataset.ByName(name)
		r := b.Generate(p.rows(b.DefaultRows), b.DefaultCols)
		can := cover.Canonical(r.NumCols(), CoverOf(ctx, r))

		start := time.Now()
		ranked, rstats, err := ranking.RankCtx(ctx, r, can, ranking.Config{})
		if err != nil {
			panic(err)
		}
		counts := make([]int, len(ranked))
		for i, rr := range ranked {
			counts[i] = rr.Counts.WithNulls
		}
		buckets := ranking.Histogram(counts)
		elapsed := time.Since(start)

		res := Fig10Result{Dataset: name, Buckets: buckets, Elapsed: elapsed, CoverFDs: len(can), Stats: rstats}
		tw := newTable(w)
		fmt.Fprintf(tw, "%s (%d FDs, %.3fs)\tmax red\tFDs\n", name, len(can), elapsed.Seconds())
		for _, bk := range buckets {
			fmt.Fprintf(tw, "\t%d\t%d\n", bk.Max, bk.FDs)
		}
		tw.Flush()
		out = append(out, res)
	}
	return out
}

// Fig11Result is one fragment's pair of histograms: redundancy buckets
// with nulls counted and with nulls excluded.
type Fig11Result struct {
	Rows          int
	WithNulls     []ranking.Bucket
	WithoutNulls  []ranking.Bucket
	RankWith      time.Duration
	RankWithout   time.Duration
	CoverFDs      int
	ShiftedToZero int // FDs whose redundancy drops to 0 when nulls are excluded
}

// Fig11 reproduces Figure 11: FD redundancy with (blue) and without
// (orange) nulls across growing ncvoter fragments. The paper's observation:
// the distributions stay stable, and many low-redundancy FDs shift to zero
// once nulls are excluded.
func Fig11(ctx context.Context, w io.Writer, p Params) []Fig11Result {
	p.fillDefaults()
	fmt.Fprintln(w, "Figure 11 — ncvoter fragments: redundancy with vs without nulls")
	b, _ := dataset.ByName("ncvoter")
	fracs := []float64{0.25, 0.5, 1.0, 2.0} // the paper's 8k/16k/512k/1024k, scaled
	if p.Quick {
		fracs = []float64{0.5, 1.0}
	}
	var out []Fig11Result
	for _, frac := range fracs {
		rows := int(float64(p.rows(b.DefaultRows)) * frac)
		r := b.Generate(rows, b.DefaultCols)
		can := cover.Canonical(r.NumCols(), CoverOf(ctx, r))
		rk := ranking.New(r)

		var withN, withoutN []int
		shifted := 0
		start := time.Now()
		for _, f := range can {
			c := rk.FD(f)
			withN = append(withN, c.WithNulls)
			withoutN = append(withoutN, c.NoNulls)
			if c.WithNulls > 0 && c.NoNulls == 0 {
				shifted++
			}
		}
		elapsed := time.Since(start)

		res := Fig11Result{
			Rows:          rows,
			WithNulls:     ranking.Histogram(withN),
			WithoutNulls:  ranking.Histogram(withoutN),
			RankWith:      elapsed,
			RankWithout:   elapsed,
			CoverFDs:      len(can),
			ShiftedToZero: shifted,
		}
		tw := newTable(w)
		fmt.Fprintf(tw, "%d rows (%d FDs, %.3fs)\tbucket max\twith nulls\twithout nulls\n",
			rows, len(can), elapsed.Seconds())
		for i := range res.WithNulls {
			fmt.Fprintf(tw, "\t%d\t%d\t%d\n",
				res.WithNulls[i].Max, res.WithNulls[i].FDs, res.WithoutNulls[i].FDs)
		}
		fmt.Fprintf(tw, "\tshifted to zero\t%d\t\n", shifted)
		tw.Flush()
		out = append(out, res)
	}
	return out
}

// CityView reproduces the Section VI-B qualitative table: minimal LHSs
// determining the city column of ncvoter, with #red and #red-0.
func CityView(ctx context.Context, w io.Writer, p Params) []ranking.ColumnView {
	p.fillDefaults()
	b, _ := dataset.ByName("ncvoter")
	r := b.Generate(p.rows(b.DefaultRows), b.DefaultCols)
	can := cover.Canonical(r.NumCols(), CoverOf(ctx, r))
	const cityCol = 6
	views, _, err := ranking.ForColumnCtx(ctx, r, can, cityCol, ranking.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, "Section VI-B — minimal LHSs for city (ncvoter)")
	tw := newTable(w)
	fmt.Fprintf(tw, "minimal LHS for city\t#red\t#red-0\n")
	for _, v := range views {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", v.LHS.Names(r.Names), v.Red, v.RedNoNN)
	}
	tw.Flush()
	return views
}

// memSnap reads the cumulative allocation counter.
type memSnap struct{ total uint64 }

func (m *memSnap) read() {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	m.total = s.TotalAlloc
}
