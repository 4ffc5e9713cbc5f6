// Llcsweep reproduces the paper's motivation studies (Figures 2 and 5) on a
// single workload through the public API: FDIP's stall-cycle coverage as a
// function of LLC round-trip latency, under different direction predictors
// and BTB sizes. One RunMatrix call runs every cell; boomsim.Coverage turns
// each (baseline, FDIP) pair into a table entry. The two contrarian findings
// should be visible:
//
//   - coverage barely depends on the direction predictor (even never-taken
//     keeps most of it), because conditional targets are near and
//     unconditional branches don't need prediction;
//   - shrinking the BTB 32K -> 2K costs only ~10-15 points of coverage, lost
//     almost entirely on unconditional discontinuities.
//
// testdata/experiments/fig2-predictor.json and fig5-btb-size.json are the
// same studies as checked, multi-seed experiment specs.
package main

import (
	"context"
	"fmt"
	"log"

	"boomsim"
)

const workloadName = "Nutch"

var (
	latencies  = []int{10, 30, 50, 70}
	predictors = []string{"tage", "bimodal", "never-taken"}
	btbSizes   = []int{2048, 4096, 8192, 16384, 32768}
)

// cell is one simulation of the sweep.
type cell struct {
	scheme    string
	btb       int
	llc       int
	predictor string
}

func main() {
	var cells []cell
	// Figure 2: every predictor at a near-ideal 32K-entry BTB, against a
	// baseline with the same BTB.
	for _, llc := range latencies {
		cells = append(cells, cell{"Base", 32768, llc, ""})
		for _, p := range predictors {
			cells = append(cells, cell{"FDIP", 32768, llc, p})
		}
	}
	// Figure 5: every BTB size, against the Table I baseline (2K BTB).
	for _, llc := range latencies {
		cells = append(cells, cell{"Base", 2048, llc, ""})
		for _, b := range btbSizes {
			cells = append(cells, cell{"FDIP", b, llc, ""})
		}
	}

	sims := make([]*boomsim.Simulation, len(cells))
	for i, c := range cells {
		opts := []boomsim.Option{
			boomsim.WithScheme(c.scheme),
			boomsim.WithWorkload(workloadName),
			boomsim.WithBTBEntries(c.btb),
			boomsim.WithLLCLatency(c.llc),
			boomsim.WithWindow(300_000, 600_000),
		}
		if c.predictor != "" {
			opts = append(opts, boomsim.WithPredictor(c.predictor))
		}
		s, err := boomsim.New(opts...)
		if err != nil {
			log.Fatal(err)
		}
		sims[i] = s
	}
	results, err := boomsim.RunMatrix(context.Background(), sims)
	if err != nil {
		log.Fatal(err)
	}

	// Rows are laid out baseline first, then its FDIP variants, so each
	// group's coverage is measured against the result just before it.
	fmt.Printf("Figure 2: FDIP stall cycles covered vs LLC latency (%s, 32K BTB)\n", workloadName)
	fmt.Printf("%-8s", "LLC")
	for _, p := range predictors {
		fmt.Printf("%14s", p)
	}
	fmt.Println()
	i := 0
	for _, llc := range latencies {
		base := results[i]
		i++
		fmt.Printf("%-8d", llc)
		for range predictors {
			fmt.Printf("%14.3f", boomsim.Coverage(base, results[i]))
			i++
		}
		fmt.Println()
	}

	fmt.Printf("\nFigure 5: FDIP stall cycles covered vs BTB size and LLC latency (%s)\n", workloadName)
	fmt.Printf("%-8s", "LLC")
	for _, b := range btbSizes {
		fmt.Printf("%10s", fmt.Sprintf("BTB%dK", b/1024))
	}
	fmt.Println()
	for _, llc := range latencies {
		base := results[i]
		i++
		fmt.Printf("%-8d", llc)
		for range btbSizes {
			fmt.Printf("%10.3f", boomsim.Coverage(base, results[i]))
			i++
		}
		fmt.Println()
	}
}
