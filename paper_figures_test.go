package boomsim_test

import (
	"os"
	"path/filepath"
	"testing"

	"boomsim"
)

// paperFigureChecks are the claims of the checked-in figure specs that the
// criterion grammar cannot state: comparisons between two schemes or two
// workloads, and ratios of metrics. Each is judged on the cross-seed means
// of the spec's report, with the threshold the figure's test has always
// used. TestExperimentPaperClaimsSmoke runs every spec once and applies its
// check here to the same report.
var paperFigureChecks = map[string]func(t *testing.T, r *boomsim.ExperimentReport){
	"fig1-opportunity": func(t *testing.T, r *boomsim.ExperimentReport) {
		// Figure 1: a perfect BTB adds to a perfect L1-I.
		l1 := reportMean(t, r, "Perfect L1-I", "Apache", 0, "speedup")
		both := reportMean(t, r, "Perfect L1-I + BTB", "Apache", 0, "speedup")
		if both <= l1 {
			t.Errorf("Apache: perfect BTB adds nothing: %v <= %v", both, l1)
		}
		// Section II-B: the SPEC-like kernel is a different regime from DB2.
		base := func(wl, metric string) float64 { return reportMean(t, r, "Base", wl, 0, metric) }
		if spec, db2 := base("SPEC-like", "stall_fraction"), base("DB2", "stall_fraction"); spec > db2/3 {
			t.Errorf("SPEC-like stall fraction %v should be far below DB2's %v", spec, db2)
		}
		if spec, db2 := base("SPEC-like", "btb_miss_squashes_per_ki"), base("DB2", "btb_miss_squashes_per_ki"); spec > db2 {
			t.Errorf("SPEC-like BTB-miss squashes %v/KI exceed DB2's %v/KI", spec, db2)
		}
		if spec, db2 := base("SPEC-like", "ipc"), base("DB2", "ipc"); spec <= db2 {
			t.Errorf("SPEC-like IPC %v should beat DB2's %v on the baseline", spec, db2)
		}
	},
	"fig3-miss-breakdown": func(t *testing.T, r *boomsim.ExperimentReport) {
		share := func(scheme, class string) float64 { return stallShare(t, r, scheme, "Apache", class) }
		total := share("Base", "stall_cycles_sequential") + share("Base", "stall_cycles_conditional") +
			share("Base", "stall_cycles_unconditional")
		if total < 0.99 || total > 1.01 {
			t.Errorf("Base's stall classes sum to %.1f%% of its stall cycles, want ~100%%", 100*total)
		}
		if seq := share("Base", "stall_cycles_sequential"); seq < 0.30 {
			t.Errorf("Base sequential share %.1f%% too small (paper: 40-54%%)", 100*seq)
		}
		if big, small := share("FDIP 32KBTB", "stall_cycles_unconditional"), share("FDIP", "stall_cycles_unconditional"); big > small {
			t.Errorf("a 32K BTB raised unconditional misses over 2K: %.1f%% > %.1f%%", 100*big, 100*small)
		}
	},
	"fig5-btb-size": func(t *testing.T, r *boomsim.ExperimentReport) {
		small := reportMean(t, r, "FDIP", "Apache", 30, "coverage")
		big := reportMean(t, r, "FDIP 32KBTB", "Apache", 30, "coverage")
		if big < small {
			t.Errorf("Apache @ LLC=30: a bigger BTB lowered coverage: %v < %v", big, small)
		}
	},
	"fig7-squashes": func(t *testing.T, r *boomsim.ExperimentReport) {
		fdip := reportMean(t, r, "FDIP", "DB2", 30, "btb_miss_squashes_per_ki")
		boom := reportMean(t, r, "Boomerang", "DB2", 30, "btb_miss_squashes_per_ki")
		if boom > 0.15*fdip {
			t.Errorf("DB2: Boomerang left %.1f%% of FDIP's BTB-miss squashes, want <= 15%%", 100*boom/fdip)
		}
		if b, f := reportMean(t, r, "Boomerang", "DB2", 30, "speedup"), reportMean(t, r, "FDIP", "DB2", 30, "speedup"); b <= f {
			t.Errorf("DB2: Boomerang speedup %v must beat FDIP's %v", b, f)
		}
	},
	"fig10-throttle": func(t *testing.T, r *boomsim.ExperimentReport) {
		// Figure 10 and Section IV-C1 make the same comparison on DB2:
		// throttled next-2 beats stalling without prefetch.
		none := reportMean(t, r, "Boomerang-N0", "DB2", 0, "speedup")
		two := reportMean(t, r, "Boomerang", "DB2", 0, "speedup")
		if two <= none {
			t.Errorf("DB2 should gain from next-2 prefetch: %v <= %v (paper: +12%%)", two, none)
		}
	},
	"sec2c-btb-alternatives": func(t *testing.T, r *boomsim.ExperimentReport) {
		fdip := reportMean(t, r, "FDIP", "DB2", 0, "btb_miss_squashes_per_ki")
		two := reportMean(t, r, "2-Level BTB", "DB2", 0, "btb_miss_squashes_per_ki")
		if two >= fdip {
			t.Errorf("DB2: 2-level BTB squashes %v/KI should be below FDIP's %v/KI", two, fdip)
		}
	},
	"sec6d-traffic": func(t *testing.T, r *boomsim.ExperimentReport) {
		pif := reportMean(t, r, "PIF", "Apache", 0, "storage_overhead_kb")
		boom := reportMean(t, r, "Boomerang", "Apache", 0, "storage_overhead_kb")
		if pif < 100*boom {
			t.Errorf("PIF's %v KB must dwarf Boomerang's %v KB", pif, boom)
		}
	},
	"ablations": func(t *testing.T, r *boomsim.ExperimentReport) {
		none := reportMean(t, r, "Boomerang pbuf=0", "DB2", 0, "speedup")
		full := reportMean(t, r, "Boomerang", "DB2", 0, "speedup")
		if full < none*0.98 {
			t.Errorf("DB2: the 32-entry prefetch buffer should not hurt: %v vs %v without", full, none)
		}
		shallow := reportMean(t, r, "FDIP-FTQ4", "Apache", 0, "coverage")
		deep := reportMean(t, r, "FDIP", "Apache", 0, "coverage")
		if deep <= shallow {
			t.Errorf("Apache: 32-entry FTQ coverage %v should beat the 4-entry FTQ's %v", deep, shallow)
		}
	},
}

// Every paper-figure check must name a checked-in spec, so renaming a spec
// cannot silently retire its checks.
func TestPaperFigureChecksNameSpecs(t *testing.T) {
	for name := range paperFigureChecks {
		if _, err := os.Stat(filepath.Join(experimentsDir, name+".json")); err != nil {
			t.Errorf("paper-figure check %q has no spec: %v", name, err)
		}
	}
}

// reportMean returns metric's cross-seed mean for (scheme, workload) in r.
// llc selects the matrix point by LLC latency; 0 takes the first point.
func reportMean(tb testing.TB, r *boomsim.ExperimentReport, scheme, workload string, llc int, metric string) float64 {
	tb.Helper()
	for _, a := range r.Aggregates {
		if a.Scheme != scheme || a.Workload != workload {
			continue
		}
		if llc != 0 && (a.Params == nil || a.Params.LLCLatency != llc) {
			continue
		}
		s, ok := a.Metrics[metric]
		if !ok {
			tb.Fatalf("%s: no %q for %s on %s", r.Header.Name, metric, scheme, workload)
		}
		return s.Mean
	}
	tb.Fatalf("%s: no aggregate for %s on %s (llc %d)", r.Header.Name, scheme, workload, llc)
	return 0
}

// stallShare is Figure 3's quantity: scheme's stall cycles of one class per
// instruction, as a fraction of Base's total stall cycles per instruction
// on the same workload (0 when Base does not stall).
func stallShare(tb testing.TB, r *boomsim.ExperimentReport, scheme, workload, class string) float64 {
	tb.Helper()
	perInstr := func(scheme, metric string) float64 {
		return reportMean(tb, r, scheme, workload, 0, metric) / reportMean(tb, r, scheme, workload, 0, "instructions")
	}
	base := perInstr("Base", "fetch_stall_cycles")
	if base == 0 {
		return 0
	}
	return perInstr(scheme, class) / base
}
