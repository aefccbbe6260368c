package relation

import (
	"strings"
	"testing"
)

func TestFromRowsRaggedErrorByDefault(t *testing.T) {
	rows := [][]string{{"1", "2"}, {"3"}}
	if _, err := FromRows([]string{"a", "b"}, rows, Options{}); err == nil {
		t.Error("short row should error without PadRagged")
	}
	wide := [][]string{{"1", "2"}, {"3", "4", "5"}}
	if _, err := FromRows([]string{"a", "b"}, wide, Options{PadRagged: true}); err == nil {
		t.Error("wide row should error even with PadRagged")
	}
}

func TestFromRowsPadRagged(t *testing.T) {
	rows := [][]string{{"1", "x"}, {"2"}, {"3", "y"}}
	r, err := FromRows([]string{"a", "b"}, rows, Options{PadRagged: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 3 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	if !r.IsNull(1, 1) {
		t.Error("padded cell should be null")
	}
	if r.IsNull(1, 0) || r.IsNull(1, 2) {
		t.Error("present cells marked null")
	}
	if r.IsNull(0, 1) {
		t.Error("column a row 1 was present")
	}
}

func TestReadCSVPadRagged(t *testing.T) {
	csv := "a,b,c\n1,2,3\n4\n5,6,7\n"
	r, err := ReadCSVString(csv, Options{PadRagged: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 3 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	if !r.IsNull(1, 1) || !r.IsNull(2, 1) {
		t.Error("padded cells of row 1 should be null")
	}
	if got := r.NullCount(); got != 2 {
		t.Errorf("null count = %d, want 2", got)
	}
}

func TestReadCSVMaxRows(t *testing.T) {
	csv := "a\n1\n2\n3\n"
	if _, err := ReadCSVString(csv, Options{MaxRows: 2}); err == nil {
		t.Error("3 rows over a MaxRows of 2 should error")
	} else if !strings.Contains(err.Error(), "MaxRows") {
		t.Errorf("err = %v", err)
	}
	if r, err := ReadCSVString(csv, Options{MaxRows: 3}); err != nil || r.NumRows() != 3 {
		t.Errorf("exactly MaxRows rows should pass: %v", err)
	}
}

func TestReadCSVMaxCols(t *testing.T) {
	csv := "a,b,c\n1,2,3\n"
	if _, err := ReadCSVString(csv, Options{MaxCols: 2}); err == nil {
		t.Error("3 columns over a MaxCols of 2 should error")
	}
	if _, err := ReadCSVString(csv, Options{MaxCols: 3}); err != nil {
		t.Errorf("exactly MaxCols columns should pass: %v", err)
	}
}

func TestReadCSVRejectsBadHeaders(t *testing.T) {
	if _, err := ReadCSVString("a,,c\n1,2,3\n", Options{}); err == nil {
		t.Error("empty header name should error")
	}
	if _, err := ReadCSVString("a,b,a\n1,2,3\n", Options{}); err == nil {
		t.Error("duplicate header name should error")
	}
}

// TestReadCSVMatchesFromRows pins the streaming encoder to the batch
// path: both must produce identical relations.
func TestReadCSVMatchesFromRows(t *testing.T) {
	csv := "a,b,c\nx,1,?\ny,2,u\nx,1,v\n,3,u\nx,2,?\n"
	for _, sem := range []NullSemantics{NullEqNull, NullNeqNull} {
		opts := Options{Semantics: sem, KeepDicts: true}
		got, err := ReadCSVString(csv, opts)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
			rows = append(rows, strings.Split(line, ","))
		}
		want, err := FromRows([]string{"a", "b", "c"}, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
			t.Fatalf("%v: dims %dx%d vs %dx%d", sem, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
		}
		for c := 0; c < got.NumCols(); c++ {
			if got.Cards[c] != want.Cards[c] {
				t.Errorf("%v: card[%d] = %d vs %d", sem, c, got.Cards[c], want.Cards[c])
			}
			for r := 0; r < got.NumRows(); r++ {
				if got.Cols[c][r] != want.Cols[c][r] {
					t.Errorf("%v: code[%d][%d] = %d vs %d", sem, c, r, got.Cols[c][r], want.Cols[c][r])
				}
				if got.IsNull(c, r) != want.IsNull(c, r) {
					t.Errorf("%v: null[%d][%d] mismatch", sem, c, r)
				}
			}
		}
	}
}

// FuzzReadCSV asserts ReadCSV never panics, returns what the reference
// encoder (refReadCSV: encoding/csv records and Go maps) returns, error
// or relation, and that every accepted relation is internally
// consistent: column lengths match the row count, codes stay inside the
// cards, and null masks align.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n")
	f.Add("a\n\n")
	f.Add("x,y,z\n\"q,uo\",2,?\n")
	f.Add("a,b\n1\n")
	f.Add("h\n" + strings.Repeat("v\n", 50))
	f.Add(",\n1,2\n")
	f.Add("a,a\n1,2\n")
	f.Add("a,b\r\n1,\"2\r\n3\",x\n")
	f.Add("a,b\n\"q\r\nr\r\ns\",?\n\"q\nr\ns\",\n?,x\n\"?\",\"\"\n")
	f.Add("a,b\n1,x\"y\n")
	f.Add("a\n" + strings.Repeat("w", scanBufSize+10) + "\n\"" + strings.Repeat("w", scanBufSize+10) + "\"\n")
	f.Fuzz(func(t *testing.T, data string) {
		for _, opts := range []Options{
			{},
			{Semantics: NullNeqNull, PadRagged: true, KeepDicts: true},
			{MaxRows: 8, MaxCols: 4},
		} {
			if msg := diffReadCSV(data, opts); msg != "" {
				t.Fatalf("%+v: %s", opts, msg)
			}
			r, err := ReadCSV(strings.NewReader(data), opts)
			if err != nil {
				continue
			}
			if len(r.Names) != r.NumCols() || len(r.Cards) != r.NumCols() || len(r.Nulls) != r.NumCols() {
				t.Fatalf("inconsistent arity: %d names, %d cols", len(r.Names), r.NumCols())
			}
			for c := 0; c < r.NumCols(); c++ {
				if len(r.Cols[c]) != r.NumRows() {
					t.Fatalf("col %d has %d rows, relation has %d", c, len(r.Cols[c]), r.NumRows())
				}
				if r.Nulls[c] != nil && len(r.Nulls[c]) != r.NumRows() {
					t.Fatalf("col %d mask has %d entries, want %d", c, len(r.Nulls[c]), r.NumRows())
				}
				for row, code := range r.Cols[c] {
					if code < 0 || int(code) >= r.Cards[c] {
						t.Fatalf("col %d row %d code %d outside card %d", c, row, code, r.Cards[c])
					}
				}
				if opts.KeepDicts && len(r.Dicts[c]) != r.Cards[c] {
					t.Fatalf("col %d dict has %d values, card %d", c, len(r.Dicts[c]), r.Cards[c])
				}
			}
		}
	})
}
