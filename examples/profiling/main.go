// Profiling: the one-shot report that ties the whole pipeline together —
// column statistics, minimal keys, the canonical cover and the redundancy
// ranking for a data set, the data-profiling workflow the paper's
// introduction frames FD discovery inside of.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/profile"
	"repro/internal/relation"
)

func main() {
	// Profile the paper's Table I snippet; swap in any CSV via
	// dhyfd.ReadCSVFile with Options{KeepDicts: true}.
	rel := dataset.NCVoterSnippet(relation.NullEqNull)
	rep, err := profile.ProfileCtx(context.Background(), rel, profile.Options{TopValues: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
		os.Exit(1)
	}
	rep.Write(os.Stdout, rel.Names)
}
