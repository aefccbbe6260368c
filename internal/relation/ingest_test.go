package relation_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/relation"
)

// slateShape is one benchmark workload's input shape.
type slateShape struct {
	dataset    string
	rows, cols int
}

func (s slateShape) String() string { return fmt.Sprintf("%s-%dx%d", s.dataset, s.rows, s.cols) }

// slate lists the input shapes of the benchmark's four workloads.
var slate = []slateShape{
	{"diabetic", 3000, 19},
	{"weather", 16000, 18},
	{"flight", 500, 17},
	{"ncvoter", 10000, 10},
}

// slateCSV renders the shape's relation at its own seed as CSV bytes, the
// way the benchmark writes its inputs: a header, then dataset.Stream's
// blocks through a csv.Writer.
func slateCSV(tb testing.TB, s slateShape) []byte {
	tb.Helper()
	bm, err := dataset.ByName(s.dataset)
	if err != nil {
		tb.Fatal(err)
	}
	spec := bm.Spec(s.rows, s.cols)
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	err = w.Write(spec.Names())
	if err == nil {
		err = dataset.Stream(spec, 0, func(block [][]string) error { return w.WriteAll(block) })
	}
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCSVSlateMatchesReference runs FuzzReadCSV's comparison with the
// reference encoder on the benchmark's four input shapes, under each of
// FuzzReadCSV's option sets and paged.
func TestReadCSVSlateMatchesReference(t *testing.T) {
	for _, s := range slate {
		data := string(slateCSV(t, s))
		for _, opts := range []relation.Options{
			{},
			{Semantics: relation.NullNeqNull, PadRagged: true, KeepDicts: true},
			{MaxRows: 8, MaxCols: 4},
			{KeepDicts: true, PageColumns: true, PageDir: t.TempDir()},
		} {
			if msg := relation.DiffReadCSV(data, opts); msg != "" {
				t.Errorf("%v %+v: %s", s, opts, msg)
			}
		}
	}
}

// TestReadCSVAllocsPerRun pins ingest's allocations: reading ncvoter
// 10000×10, resident or paged, allocates fewer than one object per ten
// rows. A string per record or per distinct value, or a map probe that
// allocates, breaks it.
func TestReadCSVAllocsPerRun(t *testing.T) {
	s := slateShape{"ncvoter", 10000, 10}
	data := slateCSV(t, s)
	for _, paged := range []bool{false, true} {
		opts := relation.Options{PageColumns: paged, PageDir: t.TempDir()}
		allocs := testing.AllocsPerRun(3, func() {
			r, err := relation.ReadCSV(bytes.NewReader(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
		})
		if limit := float64(s.rows / 10); allocs >= limit {
			t.Errorf("paged=%v: %.0f allocations per ReadCSV of %v, want fewer than %.0f", paged, allocs, s, limit)
		}
	}
}

// BenchmarkReadCSV times ReadCSV on the benchmark's input shapes, ncvoter
// also through the column pager; MB/s counts CSV bytes in.
func BenchmarkReadCSV(b *testing.B) {
	run := func(b *testing.B, data []byte, opts relation.Options) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := relation.ReadCSV(bytes.NewReader(data), opts)
			if err != nil {
				b.Fatal(err)
			}
			r.Close()
		}
	}
	for _, s := range slate {
		data := slateCSV(b, s)
		b.Run(s.String(), func(b *testing.B) { run(b, data, relation.Options{}) })
		if s.dataset == "ncvoter" {
			b.Run(s.String()+"-paged", func(b *testing.B) {
				run(b, data, relation.Options{PageColumns: true, PageDir: b.TempDir()})
			})
		}
	}
}
