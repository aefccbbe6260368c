package lint

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestRunOutputDeterministic pins the -json contract: two independent
// loads of the same module produce byte-identical findings in
// (package, file, line, col, analyzer) order, regardless of map
// iteration inside the analyzers.
func TestRunOutputDeterministic(t *testing.T) {
	// snapversion has multiple packages, so the package-first ordering
	// actually has work to do.
	dir := filepath.Join("testdata", "snapversion")
	encode := func() string {
		diags, err := Run(dir, All())
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) == 0 {
			t.Fatal("fixture produced no diagnostics")
		}
		for i := 1; i < len(diags); i++ {
			a, b := diags[i-1], diags[i]
			before := a.Package < b.Package ||
				(a.Package == b.Package && (a.File < b.File ||
					(a.File == b.File && (a.Line < b.Line ||
						(a.Line == b.Line && (a.Col < b.Col ||
							(a.Col == b.Col && a.Analyzer <= b.Analyzer)))))))
			if !before {
				t.Errorf("diagnostics out of order at %d: %+v before %+v", i, a, b)
			}
		}
		raw, err := json.Marshal(diags)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	first := encode()
	for i := 0; i < 3; i++ {
		if got := encode(); got != first {
			t.Fatalf("run %d produced different bytes:\n%s\nvs\n%s", i+2, got, first)
		}
	}
}

// TestSortDiagnostics pins the comparator itself on a scrambled slice.
func TestSortDiagnostics(t *testing.T) {
	ds := []Diagnostic{
		{Package: "b", File: "x.go", Line: 1, Col: 1, Analyzer: "z"},
		{Package: "a", File: "y.go", Line: 9, Col: 9, Analyzer: "z"},
		{Package: "a", File: "x.go", Line: 5, Col: 2, Analyzer: "m"},
		{Package: "a", File: "x.go", Line: 5, Col: 2, Analyzer: "a"},
		{Package: "a", File: "x.go", Line: 5, Col: 1, Analyzer: "z"},
		{Package: "a", File: "x.go", Line: 2, Col: 8, Analyzer: "z"},
	}
	sortDiagnostics(ds)
	want := []Diagnostic{
		{Package: "a", File: "x.go", Line: 2, Col: 8, Analyzer: "z"},
		{Package: "a", File: "x.go", Line: 5, Col: 1, Analyzer: "z"},
		{Package: "a", File: "x.go", Line: 5, Col: 2, Analyzer: "a"},
		{Package: "a", File: "x.go", Line: 5, Col: 2, Analyzer: "m"},
		{Package: "a", File: "y.go", Line: 9, Col: 9, Analyzer: "z"},
		{Package: "b", File: "x.go", Line: 1, Col: 1, Analyzer: "z"},
	}
	for i := range ds {
		if ds[i] != want[i] {
			t.Errorf("position %d: got %+v, want %+v", i, ds[i], want[i])
		}
	}
}
