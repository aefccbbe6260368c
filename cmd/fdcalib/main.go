// Command fdcalib prints the FD count and discovery time of each benchmark
// shape at its default scale, next to the paper's statistics — the tool
// used to calibrate internal/dataset's generators.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	only := flag.String("only", "", "calibrate a single benchmark")
	flag.Parse()
	fmt.Printf("%-12s %8s %5s %10s %10s %10s\n", "dataset", "rows", "cols", "paper#FD", "got#FD", "time")
	for _, b := range dataset.All() {
		if *only != "" && b.Name != *only {
			continue
		}
		r := b.GenerateDefault()
		start := time.Now()
		fds, _, err := core.Run(context.Background(), r, core.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdcalib:", err)
			os.Exit(1)
		}
		fmt.Printf("%-12s %8d %5d %10d %10d %10v\n",
			b.Name, r.NumRows(), r.NumCols(), b.PaperFDs, len(fds), time.Since(start).Round(time.Millisecond))
	}
}
