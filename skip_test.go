package boomsim_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"boomsim"
)

// runPair executes the same configuration with event-horizon cycle skipping
// on and off and returns both results' canonical JSON (which covers the
// headline stats, the full per-component registry, and any flight-recorder
// epochs — every byte a Result carries).
func runPair(t *testing.T, opts ...boomsim.Option) (on, off string) {
	t.Helper()
	ctx := context.Background()

	sOn, err := boomsim.New(append([]boomsim.Option{boomsim.WithCycleSkip(true)}, opts...)...)
	if err != nil {
		t.Fatalf("building skip-on sim: %v", err)
	}
	rOn, err := sOn.Run(ctx)
	if err != nil {
		t.Fatalf("skip-on run: %v", err)
	}
	sOff, err := boomsim.New(append([]boomsim.Option{boomsim.WithCycleSkip(false)}, opts...)...)
	if err != nil {
		t.Fatalf("building skip-off sim: %v", err)
	}
	rOff, err := sOff.Run(ctx)
	if err != nil {
		t.Fatalf("skip-off run: %v", err)
	}

	jOn, err := json.Marshal(rOn)
	if err != nil {
		t.Fatal(err)
	}
	jOff, err := json.Marshal(rOff)
	if err != nil {
		t.Fatal(err)
	}
	return string(jOn), string(jOff)
}

// TestSkipIdentityAllSchemes pins the cycle-skip contract across the whole
// registry: for every built-in scheme × workload, a skipping run and a
// per-cycle run produce byte-identical Results. Small footprints and windows
// keep the full 18×7 sweep inside a unit-test budget; the golden corpus
// covers the paper-scale windows.
func TestSkipIdentityAllSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheme×workload sweep")
	}
	for _, sc := range builtinSchemes {
		for _, wl := range builtinWorkloads {
			sc, wl := sc, wl
			t.Run(sc+"/"+wl, func(t *testing.T) {
				t.Parallel()
				on, off := runPair(t,
					boomsim.WithScheme(sc),
					boomsim.WithWorkload(wl),
					boomsim.WithFootprintKB(48),
					boomsim.WithWindow(2_000, 8_000),
				)
				if on != off {
					t.Errorf("skip-on result differs from skip-off:\n on:  %s\n off: %s", on, off)
				}
			})
		}
	}
}

// TestSkipIdentityStallHeavy covers the configuration the skip actually
// accelerates — the baseline scheme staring at a slow LLC, where most cycles
// are fetch stalls — so identity is pinned where the fast-forward path does
// the most work, not just where it is mostly idle.
func TestSkipIdentityStallHeavy(t *testing.T) {
	on, off := runPair(t,
		boomsim.WithScheme("Base"),
		boomsim.WithWorkload("Apache"),
		boomsim.WithLLCLatency(300),
		boomsim.WithFootprintKB(256),
		boomsim.WithWindow(5_000, 30_000),
	)
	if on != off {
		t.Errorf("stall-heavy skip-on result differs from skip-off:\n on:  %s\n off: %s", on, off)
	}
}

// TestSkipIdentityMaxCycles pins the window-semantics clamp: a cycle budget
// that expires mid-stall must cut both runs at the same cycle.
func TestSkipIdentityMaxCycles(t *testing.T) {
	on, off := runPair(t,
		boomsim.WithScheme("Base"),
		boomsim.WithWorkload("DB2"),
		boomsim.WithLLCLatency(200),
		boomsim.WithFootprintKB(128),
		boomsim.WithWindow(1_000, 1_000_000),
		boomsim.WithMaxCycles(37_501),
	)
	if on != off {
		t.Errorf("max-cycles skip-on result differs from skip-off:\n on:  %s\n off: %s", on, off)
	}
}

// TestSkipFlightRecorderIdentity runs the recorder at several epoch
// granularities — including 1 (every cycle is an epoch boundary, so no
// window is ever skipped) and primes sized to land epoch boundaries in the
// middle of fill stalls — and requires the full epoch timeline to be
// byte-identical with and without skipping. This is the interaction the
// epoch clamp in Engine.Run exists for: a skip must never jump across an
// epoch boundary, or the windowed deltas would merge.
func TestSkipFlightRecorderIdentity(t *testing.T) {
	for _, every := range []int64{1, 7, 97, 541, 4096} {
		t.Run(fmt.Sprintf("every-%d", every), func(t *testing.T) {
			t.Parallel()
			on, off := runPair(t,
				boomsim.WithScheme("Boomerang"),
				boomsim.WithWorkload("Apache"),
				boomsim.WithFootprintKB(96),
				boomsim.WithWindow(2_000, 20_000),
				boomsim.WithFlightRecorder(every),
			)
			if on != off {
				t.Errorf("flight-every=%d: epochs differ between skip-on and skip-off:\n on:  %s\n off: %s", every, on, off)
			}
		})
	}
}

// FuzzSkipIdentity drives randomized configurations — scheme, workload,
// footprint, window, LLC latency, seeds, optional flight recorder — through
// a skip-on and a skip-off run and requires byte-identical Result JSON
// (stats, registry and epochs). The fuzzer's job is to find a machine state
// the event-horizon proof in internal/frontend/skip.go missed; any
// divergence is a bug in the skip, never acceptable drift.
func FuzzSkipIdentity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), int64(0))
	f.Add(uint64(42), uint8(7), uint8(3), uint8(200), int64(97))
	f.Add(uint64(0xdeadbeef), uint8(17), uint8(1), uint8(64), int64(1))
	f.Add(uint64(7), uint8(255), uint8(6), uint8(31), int64(4096))

	f.Fuzz(func(t *testing.T, seed uint64, schemePick, wlPick, skew uint8, flightEvery int64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		opts := []boomsim.Option{
			boomsim.WithScheme(builtinSchemes[int(schemePick)%len(builtinSchemes)]),
			boomsim.WithWorkload(builtinWorkloads[int(wlPick)%len(builtinWorkloads)]),
			boomsim.WithFootprintKB(16 + rng.Intn(112)),
			boomsim.WithWindow(uint64(rng.Intn(3000)), 1_000+uint64(rng.Intn(9_000))),
			boomsim.WithSeeds(seed%16+uint64(skew), seed%16),
			boomsim.WithLLCLatency(10 + rng.Intn(290)),
		}
		if flightEvery != 0 {
			fe := flightEvery
			if fe < 0 {
				fe = -fe
			}
			fe = fe%8192 + 1
			opts = append(opts, boomsim.WithFlightRecorder(fe))
		}

		ctx := context.Background()
		sOn, err := boomsim.New(append([]boomsim.Option{boomsim.WithCycleSkip(true)}, opts...)...)
		if err != nil {
			if errors.Is(err, boomsim.ErrInvalidOption) {
				return
			}
			t.Fatalf("building skip-on sim: %v", err)
		}
		sOff, err := boomsim.New(append([]boomsim.Option{boomsim.WithCycleSkip(false)}, opts...)...)
		if err != nil {
			t.Fatalf("building skip-off sim: %v", err)
		}
		rOn, err := sOn.Run(ctx)
		if err != nil {
			t.Fatalf("skip-on run: %v", err)
		}
		rOff, err := sOff.Run(ctx)
		if err != nil {
			t.Fatalf("skip-off run: %v", err)
		}
		jOn, err := json.Marshal(rOn)
		if err != nil {
			t.Fatal(err)
		}
		jOff, err := json.Marshal(rOff)
		if err != nil {
			t.Fatal(err)
		}
		if string(jOn) != string(jOff) {
			t.Fatalf("skip-on result differs from skip-off:\n on:  %s\n off: %s", jOn, jOff)
		}
	})
}
