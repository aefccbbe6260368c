package profile

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// profileOf runs ProfileCtx, failing t on error.
func profileOf(t *testing.T, r *relation.Relation, opts Options) *Report {
	t.Helper()
	rep, err := ProfileCtx(context.Background(), r, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestProfileNCVoterSnippet(t *testing.T) {
	r := dataset.NCVoterSnippet(relation.NullEqNull)
	rep := profileOf(t, r, Options{})

	if rep.Rows != 14 || rep.Cols != 9 {
		t.Fatalf("dims %dx%d", rep.Rows, rep.Cols)
	}
	if rep.Missing != 14 {
		t.Errorf("missing = %d, want 14 (all name_suffix)", rep.Missing)
	}
	if rep.CanonicalFDs == 0 || rep.CanonicalFDs > rep.LeftReducedFDs {
		t.Errorf("cover sizes: %d canonical, %d left-reduced", rep.CanonicalFDs, rep.LeftReducedFDs)
	}
	if len(rep.Ranked) != rep.CanonicalFDs {
		t.Errorf("ranked %d of %d", len(rep.Ranked), rep.CanonicalFDs)
	}
	if len(rep.Keys) == 0 {
		t.Error("no keys found")
	}
	// A column's redundant occurrences sum #red+0 of X → A over the
	// canonical FDs whose RHS holds it.
	for c, col := range rep.Columns {
		want := 0
		for _, rf := range rep.Ranked {
			if rf.FD.RHS.Contains(c) {
				want += ranking.Of(r, dep.FD{LHS: rf.FD.LHS, RHS: bitset.FromAttrs(rep.Cols, c)}).WithNulls
			}
		}
		if col.RedundantOcc != want {
			t.Errorf("column %s: %d redundant occurrences, want %d", col.Name, col.RedundantOcc, want)
		}
	}

	// state is constant; name_suffix all-null (also constant under null=null).
	state := rep.Columns[7]
	if !state.IsConstant || state.Distinct != 1 {
		t.Errorf("state profile: %+v", state)
	}
	suffix := rep.Columns[3]
	if suffix.Nulls != 14 {
		t.Errorf("suffix nulls = %d", suffix.Nulls)
	}
	// street_address is NOT unique in the snippet — the futrell couple
	// shares "9802 us hwy 258" — and neither is voter_id (duplicate 131).
	if rep.Columns[5].IsUnique {
		t.Errorf("street has a duplicate: %+v", rep.Columns[5])
	}
	if rep.Columns[0].IsUnique {
		t.Errorf("voter_id 131 is duplicated: %+v", rep.Columns[0])
	}
	// Top values must come from the retained dictionaries.
	last := rep.Columns[2]
	if len(last.TopValues) == 0 || last.TopValues[0].Value != "johnson" || last.TopValues[0].Count != 6 {
		t.Errorf("last_name top values: %+v", last.TopValues)
	}
}

func TestProfileWriteIsReadable(t *testing.T) {
	r := dataset.NCVoterSnippet(relation.NullEqNull)
	rep := profileOf(t, r, Options{})
	var buf bytes.Buffer
	rep.Write(&buf, r.Names)
	out := buf.String()
	for _, want := range []string{"rows: 14", "minimal keys", "top FDs", "last_name", "johnson"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestProfileParallelMatchesSerial(t *testing.T) {
	b, _ := dataset.ByName("ncvoter")
	r := b.Generate(400, 12)
	serial := profileOf(t, r, Options{})
	par := profileOf(t, r, Options{Workers: 4})
	if serial.CanonicalFDs != par.CanonicalFDs || serial.LeftReducedFDs != par.LeftReducedFDs {
		t.Errorf("parallel profile diverges: %d/%d vs %d/%d",
			serial.LeftReducedFDs, serial.CanonicalFDs, par.LeftReducedFDs, par.CanonicalFDs)
	}
	if serial.Totals != par.Totals {
		t.Errorf("totals diverge")
	}
}

func TestProfileKeysAreDataKeys(t *testing.T) {
	// Every reported key must actually be unique in the data.
	b, _ := dataset.ByName("bridges")
	r := b.GenerateDefault()
	rep := profileOf(t, r, Options{MaxKeys: 16})
	for _, k := range rep.Keys {
		seen := map[string]bool{}
		key := make([]byte, 0, 32)
		for row := 0; row < r.NumRows(); row++ {
			key = key[:0]
			for a := k.Next(0); a >= 0; a = k.Next(a + 1) {
				v := r.Cols[a][row]
				key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			if seen[string(key)] {
				t.Fatalf("reported key %v has duplicate rows", k)
			}
			seen[string(key)] = true
		}
	}
}
