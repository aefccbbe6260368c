// Command fdvet runs the repo's invariant analyzers (internal/lint) over
// the module: a pure-stdlib static-analysis gate for the conventions the
// discovery runtime depends on but no compiler checks.
//
//	fdvet [-json] [-run ctxflow,faultsite,...] [module-dir]
//
// With no directory it analyzes the module rooted at the current
// directory (walking up to the nearest go.mod). Exit status: 0 clean,
// 1 findings, 2 load or usage errors.
//
// Findings print as file:line:col: message [analyzer], ordered by
// (package, file, line, col, analyzer) so successive runs are
// byte-identical; -json emits the same order as a machine-readable
// array for CI consumption. Suppress a finding with a trailing or
// preceding comment:
//
//	//fdvet:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	run := flag.String("run", "", "comma-separated analyzers to run (default all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fdvet [-json] [-run analyzers] [module-dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdvet:", err)
		os.Exit(2)
	}

	dir := "."
	switch flag.NArg() {
	case 0:
	case 1:
		dir = flag.Arg(0)
	default:
		flag.Usage()
		os.Exit(2)
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdvet:", err)
		os.Exit(2)
	}

	m, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdvet:", err)
		os.Exit(2)
	}
	diags := lint.RunModule(m, analyzers)
	if *jsonOut {
		out := struct {
			Root     string            `json:"root"`
			Findings []lint.Diagnostic `json:"findings"`
		}{Root: root, Findings: diags}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "fdvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			rel, err := filepath.Rel(root, d.File)
			if err == nil {
				d.File = rel
			}
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found in or above %s", abs)
		}
		d = parent
	}
}
