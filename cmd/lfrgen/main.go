// Command lfrgen generates LFR benchmark graphs.
//
// Usage:
//
//	lfrgen -index 3 -seed 42 -out lfr3.txt     # one Table II benchmark
//	lfrgen -table2 -seed 42                     # print Table II inventory
//	lfrgen -n 500 -k 4 -tau 2 -out custom.txt  # custom parameters
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"tends/internal/graph"
	"tends/internal/lfr"
)

func main() {
	var (
		index  = flag.Int("index", 0, "Table II benchmark index (1..15)")
		table2 = flag.Bool("table2", false, "generate all of Table II and print their properties")
		n      = flag.Int("n", 0, "custom: number of nodes")
		k      = flag.Float64("k", 4, "custom: average degree")
		tau    = flag.Float64("tau", 2, "custom: degree distribution exponent")
		mixing = flag.Float64("mixing", 0.1, "custom: community mixing parameter")
		seed   = flag.Int64("seed", 1, "RNG seed")
		out    = flag.String("out", "", "output graph file (default stdout)")
	)
	flag.Parse()
	if err := run(*index, *table2, *n, *k, *tau, *mixing, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "lfrgen: %v\n", err)
		os.Exit(1)
	}
}

func run(index int, table2 bool, n int, k, tau, mixing float64, seed int64, out string) error {
	if table2 {
		fmt.Printf("%-8s %6s %6s %6s %8s %10s\n", "graph", "n", "kappa", "tau", "m", "avg-deg")
		for i := 1; i <= 15; i++ {
			res, err := lfr.GenerateBenchmark(i, seed)
			if err != nil {
				return err
			}
			p, _ := lfr.Benchmark(i)
			g := res.Graph
			fmt.Printf("LFR%-5d %6d %6.0f %6.1f %8d %10.2f\n",
				i, p.N, p.AvgDegree, p.DegreeExp, g.NumEdges(), g.AverageDegree())
		}
		return nil
	}
	var g *graph.Directed
	switch {
	case index != 0 && n != 0:
		return fmt.Errorf("use either -index or -n, not both")
	case index != 0:
		res, err := lfr.GenerateBenchmark(index, seed)
		if err != nil {
			return err
		}
		g = res.Graph
	case n != 0:
		res, err := lfr.Generate(lfr.Params{N: n, AvgDegree: k, DegreeExp: tau, Mixing: mixing}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		g = res.Graph
	default:
		return fmt.Errorf("one of -index, -table2 or -n is required")
	}
	if out == "" {
		return graph.Write(os.Stdout, g)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
