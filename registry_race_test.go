package boomsim

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"boomsim/internal/scheme"
	"boomsim/internal/workload"
)

// TestRegistryConcurrentRegisterAndLookup hammers a private registry pair
// from many goroutines at once — the access pattern boomsimd makes routine,
// with /v1/schemes listings, per-request lookups and (in principle) runtime
// registrations interleaving freely. Run under -race this pins the RWMutex
// discipline of registry: any unguarded read or write trips the detector.
// The registries are private so the process-global ones, and every other
// test's view of them, stay exactly the built-ins.
func TestRegistryConcurrentRegisterAndLookup(t *testing.T) {
	const writers, readers, perWriter = 8, 8, 25
	schemes := newRegistry[scheme.Scheme]("scheme", ErrUnknownScheme)
	workloads := newRegistry[workload.Profile]("workload", ErrUnknownWorkload)
	if err := schemes.add("Boomerang", scheme.Boomerang()); err != nil {
		t.Fatal(err)
	}
	if err := workloads.add("SPEC-like", workload.SPECLike()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s := scheme.Base()
				s.Name = fmt.Sprintf("RaceScheme-%d-%d", w, i)
				if err := schemes.add(s.Name, s); err != nil {
					t.Errorf("add scheme: %v", err)
				}
				p := workload.SPECLike()
				p.Name = fmt.Sprintf("RaceWorkload-%d-%d", w, i)
				if err := workloads.add(p.Name, p); err != nil {
					t.Errorf("add workload: %v", err)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Every read path: listings, hits and misses.
				if got := schemes.list(); len(got) < 1 || got[0].Name != "Boomerang" {
					t.Errorf("scheme listing lost its first entry mid-hammer (%d entries)", len(got))
				}
				if got := workloads.list(); len(got) < 1 || got[0].Name != "SPEC-like" {
					t.Errorf("workload listing lost its first entry mid-hammer (%d entries)", len(got))
				}
				if _, err := schemes.lookup("Boomerang"); err != nil {
					t.Errorf("lookup(Boomerang): %v", err)
				}
				if _, err := workloads.lookup("SPEC-like"); err != nil {
					t.Errorf("lookup(SPEC-like): %v", err)
				}
				if _, err := schemes.lookup(fmt.Sprintf("RaceMissing-%d-%d", r, i)); !errors.Is(err, ErrUnknownScheme) {
					t.Errorf("lookup miss = %v, want ErrUnknownScheme", err)
				}
			}
		}(r)
	}
	wg.Wait()

	// Everything registered during the hammer is listed once and resolvable.
	if n := len(schemes.list()); n != 1+writers*perWriter {
		t.Errorf("scheme registry holds %d entries, want %d", n, 1+writers*perWriter)
	}
	if n := len(workloads.list()); n != 1+writers*perWriter {
		t.Errorf("workload registry holds %d entries, want %d", n, 1+writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("RaceScheme-%d-%d", w, perWriter-1)
		if _, err := schemes.lookup(name); err != nil {
			t.Errorf("scheme %s registered but not found: %v", name, err)
		}
	}
	if err := schemes.add("Boomerang", scheme.Boomerang()); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("duplicate add = %v, want ErrInvalidOption", err)
	}
}
