package boomsim_test

import (
	"testing"

	"boomsim"
)

// builtinSchemes and builtinWorkloads pin the 18 built-in schemes and the 7
// built-in workloads in registration order. Sweeps over "every built-in"
// iterate these lists, never Schemes()/Workloads(): the registry is
// process-global, so an entry another test registers would otherwise
// change what a sweep runs with the test order. (TestRegisterSchemeAndWorkload
// adds one scheme and one workload.) The registry's init registers
// scheme.Builtins().
var (
	builtinSchemes = []string{
		"Base", "Next Line", "DIP", "FDIP", "SHIFT", "Confluence", "Boomerang",
		"PIF", "Perfect L1-I", "Perfect L1-I + BTB", "2-Level BTB", "PhantomBTB",
		"Boomerang-Unthrottled",
		"Boomerang-N0", "Boomerang-N1", "Boomerang-N2", "Boomerang-N4", "Boomerang-N8",
	}
	builtinWorkloads = []string{
		"Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2", "SPEC-like",
	}
)

// TestBuiltinListsMatchRegistry guards the pin: the lists are exactly the
// first 18 schemes and 7 workloads the registry holds, the ones its init
// registers before any test can add more.
func TestBuiltinListsMatchRegistry(t *testing.T) {
	schemes := boomsim.Schemes()
	if len(schemes) < len(builtinSchemes) {
		t.Fatalf("registry holds %d schemes, fewer than the %d built-ins", len(schemes), len(builtinSchemes))
	}
	for i, name := range builtinSchemes {
		if schemes[i].Name != name {
			t.Errorf("built-in scheme %d is %q in the registry, %q in the pinned list", i, schemes[i].Name, name)
		}
	}
	workloads := boomsim.Workloads()
	if len(workloads) < len(builtinWorkloads) {
		t.Fatalf("registry holds %d workloads, fewer than the %d built-ins", len(workloads), len(builtinWorkloads))
	}
	for i, name := range builtinWorkloads {
		if workloads[i].Name != name {
			t.Errorf("built-in workload %d is %q in the registry, %q in the pinned list", i, workloads[i].Name, name)
		}
	}
}
