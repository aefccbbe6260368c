package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// refReadCSV is ReadCSV built the plain way: encoding/csv records, one
// map[string]int32 per column and a null-token map probe per cell. It
// hands out codes in first-occurrence order, null codes interleaved,
// and returns ReadCSV's errors. The differential tests hold ReadCSV's
// scanner and open-addressing dictionaries to it.
func refReadCSV(r io.Reader, opts Options) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("relation: empty csv")
	}
	if err != nil {
		return nil, fmt.Errorf("relation: reading csv: %w", err)
	}
	n := len(header)
	if opts.MaxCols > 0 && n > opts.MaxCols {
		return nil, fmt.Errorf("relation: %d columns exceeds the MaxCols cap of %d", n, opts.MaxCols)
	}
	seen := map[string]int{}
	for i, name := range header {
		if name == "" {
			return nil, fmt.Errorf("relation: column %d has an empty name", i)
		}
		if j, dup := seen[name]; dup {
			return nil, fmt.Errorf("relation: duplicate column name %q (columns %d and %d)", name, j, i)
		}
		seen[name] = i
	}
	tokens := opts.NullTokens
	if tokens == nil {
		tokens = []string{"", "?"}
	}
	isNull := map[string]bool{}
	for _, t := range tokens {
		isNull[t] = true
	}
	rel := &Relation{
		Names:     header,
		Cols:      make([][]int32, n),
		Cards:     make([]int, n),
		Nulls:     make([][]bool, n),
		Semantics: opts.Semantics,
	}
	dicts := make([]map[string]int32, n)
	values := make([][]string, n)
	nullCode := make([]int32, n)
	for c := range dicts {
		rel.Cols[c] = []int32{}
		dicts[c] = map[string]int32{}
		nullCode[c] = -1
	}
	newCode := func(c int, v string) int32 {
		values[c] = append(values[c], v)
		return int32(len(values[c]) - 1)
	}
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading csv: %w", err)
		}
		if opts.MaxRows > 0 && rel.rows >= opts.MaxRows {
			return nil, fmt.Errorf("relation: input exceeds the MaxRows cap of %d data rows", opts.MaxRows)
		}
		if len(rec) != n && (len(rec) > n || !opts.PadRagged) {
			return nil, fmt.Errorf("relation: row %d has %d fields, want %d", rel.rows, len(rec), n)
		}
		for c := 0; c < n; c++ {
			v, null := "", true // a padded cell
			if c < len(rec) {
				v, null = rec[c], isNull[rec[c]]
			}
			var code int32
			switch {
			case !null:
				var ok bool
				if code, ok = dicts[c][v]; !ok {
					code = newCode(c, v)
					dicts[c][v] = code
				}
			case opts.Semantics == NullNeqNull:
				code = newCode(c, v)
			default:
				if nullCode[c] < 0 {
					nullCode[c] = newCode(c, v)
				}
				code = nullCode[c]
			}
			if null && rel.Nulls[c] == nil {
				rel.Nulls[c] = make([]bool, rel.rows)
			}
			if rel.Nulls[c] != nil {
				rel.Nulls[c] = append(rel.Nulls[c], null)
			}
			rel.Cols[c] = append(rel.Cols[c], code)
		}
		rel.rows++
	}
	for c := range values {
		rel.Cards[c] = len(values[c])
	}
	if opts.KeepDicts {
		rel.Dicts = values
	}
	rel.packNulls()
	return rel, nil
}

// diffRelations describes the first difference between two relations in
// rows, names, semantics, Cols, Cards, Nulls, NullBits or Dicts, or
// returns "" when there is none.
func diffRelations(got, want *Relation) string {
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Names", got.Names, want.Names},
		{"Semantics", got.Semantics, want.Semantics},
		{"Cols", got.Cols, want.Cols},
		{"Cards", got.Cards, want.Cards},
		{"Nulls", got.Nulls, want.Nulls},
		{"NullBits", got.NullBits, want.NullBits},
		{"Dicts", got.Dicts, want.Dicts},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s differ:\n got  %s\n want %s", f.name, clip(f.got), clip(f.want))
		}
	}
	return ""
}

// diffReadCSV runs ReadCSV and refReadCSV on data under opts and
// describes the first difference in what they return, or returns "".
// Errors must match in their text, so a *csv.ParseError must carry the
// same lines and column.
func diffReadCSV(data string, opts Options) string {
	got, gerr := ReadCSV(strings.NewReader(data), opts)
	if got != nil {
		defer got.Close()
	}
	want, werr := refReadCSV(strings.NewReader(data), opts)
	switch {
	case gerr != nil || werr != nil:
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Sprintf("error %v, want %v", gerr, werr)
		}
		return ""
	default:
		return diffRelations(got, want)
	}
}

// clip formats v, cut to its first 200 bytes.
func clip(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 200 {
		return s[:200] + "…"
	}
	return s
}
