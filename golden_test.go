package boomsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boomsim"
)

// The golden corpus pins the simulator's statistical output — IPC, stall
// coverage, squash anatomy, BTB and hierarchy counters — for every
// built-in scheme on a 3-workload subset at fixed seeds and a reduced
// scale. Any refactor that drifts a number the paper's figures are built
// from fails here with a field-level diff instead of silently skewing
// results. Regenerate after an intentional behavior change with:
//
//	go test -run TestGoldenStats -update .
//
// and review the testdata/golden diff like any other code change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from current simulator output")

const goldenDir = "testdata/golden"

// goldenWorkloads is the corpus's workload subset: the paper's headline
// server workload, the largest-footprint commercial one, and the
// SPEC-like contrast profile.
var goldenWorkloads = []string{"Apache", "DB2", "SPEC-like"}

// goldenCell is the reduced-scale methodology every corpus entry runs:
// small enough that the full scheme lineup stays in CI budgets, large
// enough that every counter in Result is exercised.
func goldenCell(scheme, workload string, skip bool) (*boomsim.Simulation, error) {
	return boomsim.New(
		boomsim.WithScheme(scheme),
		boomsim.WithWorkload(workload),
		boomsim.WithFootprintKB(64),
		boomsim.WithWindow(5_000, 20_000),
		boomsim.WithSeeds(7, 11),
		boomsim.WithCycleSkip(skip),
	)
}

// goldenSkipArms runs every corpus cell with event-horizon cycle skipping
// on and off: skipping must be byte-invisible, so both arms are compared
// to the same files, and the per-cycle control loop is checked on every
// test run. -update writes from the skipping arm.
var goldenSkipArms = []struct {
	name string
	on   bool
}{{"skip on", true}, {"skip off", false}}

func goldenFile(scheme, workload string) string {
	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
				return r
			default:
				return '_'
			}
		}, s)
	}
	return filepath.Join(goldenDir, sanitize(scheme)+"__"+sanitize(workload)+".json")
}

func TestGoldenStats(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	visited := map[string]bool{}
	for _, sc := range builtinSchemes {
		for _, wl := range goldenWorkloads {
			for _, arm := range goldenSkipArms {
				sc, wl, arm := sc, wl, arm
				if *updateGolden && !arm.on {
					continue
				}
				path := goldenFile(sc, wl)
				visited[filepath.Base(path)] = true
				t.Run(fmt.Sprintf("%s on %s, %s", sc, wl, arm.name), func(t *testing.T) {
					t.Parallel()
					s, err := goldenCell(sc, wl, arm.on)
					if err != nil {
						t.Fatal(err)
					}
					r, err := s.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					// The headline corpus predates the per-component registry and
					// stays byte-frozen across the config-plane refactor — the
					// proof that schemes-as-data is behavior-preserving. The
					// registry itself is pinned by TestGoldenRegistryStats.
					headline := r
					headline.Stats = nil
					got, err := json.MarshalIndent(headline, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, '\n')

					if *updateGolden {
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("no golden file for this cell (run with -update to create it): %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("stats drifted from the golden corpus:\n%s\nregenerate with -update if the change is intentional",
							goldenDiff(t, want, got))
					}
				})
			}
		}
	}

	// Every checked-in golden file must correspond to a live cell:
	// leftovers from renamed schemes would otherwise rot unnoticed.
	if !*updateGolden {
		entries, err := os.ReadDir(goldenDir)
		if err != nil {
			t.Fatalf("reading %s (bootstrap with -update): %v", goldenDir, err)
		}
		for _, e := range entries {
			if !visited[e.Name()] {
				t.Errorf("stale golden file %s: no built-in scheme/workload produces it", e.Name())
			}
		}
	}
}

// goldenRegistryDir pins the per-component statistics registry for the
// paper's headline schemes on the headline workload: one file per scheme,
// every namespace (frontend, bpu, cache, btb, prefetch, boomerang, ...)
// with every counter. The subset keeps CI cost bounded — the headline
// corpus above already pins the projection for all 18 schemes x 3
// workloads — while any change to what components publish, or to the
// numbers they publish, surfaces here as a named-field diff.
const goldenRegistryDir = "testdata/golden-registry"

func TestGoldenRegistryStats(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(goldenRegistryDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	visited := map[string]bool{}
	for _, sc := range boomsim.DefaultSchemes() {
		for _, arm := range goldenSkipArms {
			sc, arm := sc, arm
			if *updateGolden && !arm.on {
				continue
			}
			path := goldenFile(sc, "Apache")
			path = filepath.Join(goldenRegistryDir, filepath.Base(path))
			visited[filepath.Base(path)] = true
			t.Run(sc+", "+arm.name, func(t *testing.T) {
				t.Parallel()
				s, err := goldenCell(sc, "Apache", arm.on)
				if err != nil {
					t.Fatal(err)
				}
				r, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Stats) == 0 {
					t.Fatal("run produced no per-component registry stats")
				}
				got, err := json.MarshalIndent(r.Stats, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')

				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("no registry golden for this scheme (run with -update to create it): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("per-component stats drifted from the golden corpus:\n%s\nregenerate with -update if the change is intentional",
						goldenDiff(t, want, got))
				}
			})
		}
	}
	if !*updateGolden {
		entries, err := os.ReadDir(goldenRegistryDir)
		if err != nil {
			t.Fatalf("reading %s (bootstrap with -update): %v", goldenRegistryDir, err)
		}
		for _, e := range entries {
			if !visited[e.Name()] {
				t.Errorf("stale registry golden %s: no headline scheme produces it", e.Name())
			}
		}
	}
}

// goldenDiff renders a field-level comparison so a drifted counter is
// named, not buried in two JSON blobs.
func goldenDiff(t *testing.T, want, got []byte) string {
	t.Helper()
	var w, g map[string]any
	if json.Unmarshal(want, &w) != nil || json.Unmarshal(got, &g) != nil {
		return fmt.Sprintf("want:\n%s\ngot:\n%s", want, got)
	}
	var b strings.Builder
	for k, wv := range w {
		if gv, ok := g[k]; !ok || fmt.Sprint(gv) != fmt.Sprint(wv) {
			fmt.Fprintf(&b, "  %s: golden %v, got %v\n", k, wv, gv)
		}
	}
	for k, gv := range g {
		if _, ok := w[k]; !ok {
			fmt.Fprintf(&b, "  %s: new field, got %v\n", k, gv)
		}
	}
	if b.Len() == 0 {
		return fmt.Sprintf("byte-level difference only\nwant:\n%s\ngot:\n%s", want, got)
	}
	return b.String()
}
