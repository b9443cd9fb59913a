// Command mrsweep regenerates the paper's evaluation figures: each -figure
// target runs the corresponding micro-benchmark sweep on the simulated
// testbeds and prints the same series the paper plots, with derived
// improvement percentages for paper-vs-measured comparison.
//
// Sweep points are independent simulations, so they run on a worker pool
// (-workers) and are memoized by configuration hash; -cache-dir persists the
// memo across runs. Output is byte-identical at any worker count and whether
// points were computed or replayed from cache.
//
// Examples:
//
//	mrsweep -figure fig2a            # MR-AVG over 1/10GigE + IPoIB QDR
//	mrsweep -figure all              # the whole evaluation section
//	mrsweep -figure all -workers 8   # same output, 8 points in flight
//	mrsweep -figure fig8a -csv       # case-study series as CSV
//	mrsweep -figure all -cache-dir ~/.cache/mrmicro   # reuse prior points
//	mrsweep -list
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mrmicro/internal/figures"
	"mrmicro/internal/simcache"
)

func main() {
	var ids []string
	for _, f := range figures.All() {
		ids = append(ids, f.ID)
	}
	var (
		figureF  = flag.String("figure", "", "figure id ("+strings.Join(ids, ", ")+") or 'all'")
		quick    = flag.Bool("quick", false, "small sweep sizes (fast preview)")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables")
		outDir   = flag.String("out", "", "also write each figure's series as <dir>/<figure>.csv")
		list     = flag.Bool("list", false, "list available figures")
		workers  = flag.Int("workers", 0, "concurrent sweep points (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "persist simulation results here (default: in-memory only)")
		stats    = flag.Bool("cache-stats", false, "report cache hit/miss counts to stderr")
	)
	flag.Parse()

	if *list || *figureF == "" {
		fmt.Println("available figures:")
		for _, f := range figures.All() {
			fmt.Printf("  %-8s %s\n", f.ID, f.Title)
		}
		if *figureF == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var targets []figures.Figure
	if *figureF == "all" {
		targets = figures.All()
	} else {
		f, ok := figures.ByID(*figureF)
		if !ok {
			fmt.Fprintf(os.Stderr, "mrsweep: unknown figure %q (try -list)\n", *figureF)
			os.Exit(1)
		}
		targets = []figures.Figure{f}
	}

	cache, err := simcache.New(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrsweep:", err)
		os.Exit(1)
	}
	opts := figures.Options{Quick: *quick, Workers: *workers, Cache: cache}
	for _, f := range targets {
		out, err := f.Generate(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrsweep: %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "mrsweep:", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, out.ID+".csv")
			if err := writeFigureCSV(path, out); err != nil {
				fmt.Fprintln(os.Stderr, "mrsweep:", err)
				os.Exit(1)
			}
		}
		if *csv {
			for _, t := range out.Tables {
				fmt.Printf("# %s: %s\n%s", out.ID, t.Title, t.CSV())
			}
			continue
		}
		fmt.Print(out.Render())
		fmt.Println()
	}
	if *stats {
		hits, misses := cache.Stats()
		fmt.Fprintf(os.Stderr, "mrsweep: cache %d hit(s), %d miss(es)\n", hits, misses)
	}
}

// writeFigureCSV writes the figure's tables as CSV, followed by its
// timelines and notes as '#'-commented sections, through one buffered,
// error-checked writer. A short write surfaces as an error instead of
// silently truncating the file.
func writeFigureCSV(path string, out *figures.Output) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, t := range out.Tables {
		fmt.Fprintf(w, "# %s\n%s", t.Title, t.CSV())
	}
	for _, tl := range out.Timelines {
		fmt.Fprintf(w, "# timeline: %s (%s)\n", tl.Title, tl.YLabel)
		for _, line := range strings.Split(strings.TrimSuffix(tl.CSV(), "\n"), "\n") {
			fmt.Fprintf(w, "# %s\n", line)
		}
	}
	for _, n := range out.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
