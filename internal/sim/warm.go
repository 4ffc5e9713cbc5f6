package sim

import (
	"context"
	"encoding/json"
	"fmt"

	"boomsim/internal/scheme"
)

// The warm arena memoises warmed instances — the snapshot/fork plane that
// makes sweeps sub-linear in their warm cost. A sweep re-simulates the same
// 200K-instruction warm window for every run that shares a warm-relevant
// configuration (repeated matrix runs, parameter sweeps over the measurement
// window, benchmark iterations); the arena instead warms one master per
// configuration and hands every run a deep fork of it, so only the
// measurement window is re-simulated.
//
// Correctness rests on two invariants:
//   - A fork is indistinguishable from a fresh warm: Instance.Clone
//     duplicates every piece of mutable state, so results are byte-identical
//     with reuse on or off (the golden corpus pins this).
//   - The master never advances past the warm boundary: every consumer —
//     including the first — receives a clone, and clones never write through
//     to the master.
//
// The key must cover everything that shapes warmed state. That includes
// every model input of the scheme config — warm microarchitectural
// contents (caches, BTB, predictor, prefetcher history, even the walker's
// exact stopping point) are scheme-dependent — serialised as canonical JSON
// because scheme.Config holds pointer sub-configs whose Go-syntax
// formatting would key on addresses. MeasureInstrs and MaxCycles are
// deliberately excluded: they only shape the measurement window, so sweeps
// over them share one master.
//
// Like the image cache, the arena is a bounded memo (internal/memo):
// concurrent runs of the same configuration warm one master between them,
// and a parameter sweep cannot grow the arena monotonically.
// Masters are kept frozen (see buildMaster). A warmed instance is 2.6–4.8
// MB dense at the default 8 MB LLC, 2 MB of it the LLC tag array (131,072
// 16-byte ways); frozen, its LLC is only the sets that differ from the
// shared template (templateCacheEntries bounds those) and its walker only
// the nonzero counters. After the default 200K-instruction warm on Apache,
// BenchmarkWarmArenaMaster measures 0.19–2.4 MB per frozen master, median
// about 0.85 MB (DB2 is alike; the 16K-entry BTBs and PIF history make the
// large end), so the bound caps resident masters near 0.6 GB, images and
// templates aside. It is sized so a full
// 18-scheme x 7-workload matrix (126 entries, the sweep shape the paper's
// figures and this repo's benchmarks re-run most) stays resident even with
// dozens of other warmed configurations already in the arena — at a tighter
// bound a process mixing a full matrix with other sweeps evicts matrix
// masters mid-sweep and rebuilds them every pass.
const warmArenaEntries = 256

// warmKeyOf projects spec onto its warm-relevant parameters. The scheme's
// labels (Name, Description, StorageOverheadKB) are not model inputs, so
// schemes that differ only in them — Boomerang and Boomerang-N2 — share a
// master. ok is false when the scheme config cannot be serialised (no such
// built-in exists, but user-authored configs are arbitrary data) — the
// caller then skips reuse.
func warmKeyOf(spec Spec) (key string, ok bool) {
	model := spec.Scheme
	model.Name, model.Description, model.StorageOverheadKB = "", "", 0
	cfg, err := json.Marshal(model)
	if err != nil {
		return "", false
	}
	// The skip flag is result-irrelevant (byte-identity; see
	// internal/frontend/skip.go) but still keyed: a control arm asking for
	// the per-cycle loop must not be handed a master warmed by the skipping
	// loop, or the control would no longer exercise what it claims to.
	return fmt.Sprintf("scheme=%s|workload=%s/%d/%+v|walk=%d|pred=%q|core=%+v|warm=%d|noskip=%t",
		cfg, spec.Workload.Name, spec.ImageSeed, spec.Workload.Gen,
		spec.WalkSeed, spec.Predictor, spec.Cfg, spec.WarmInstrs,
		spec.DisableCycleSkip), true
}

// warm resolves spec's warmed instance and reports how it was obtained:
// "fork" when it forked a master another run warmed, "fresh" when this run
// simulated the warm window itself, privately or as the arena's new master.
// The arena is skipped when reuse is off or the key is not derivable, and
// the run falls back to a private warm when the shared warm failed for a
// reason other than the caller's own cancellation (it reproduces the error,
// or succeeds if it was transient) or a component was not clonable.
func (m *memos) warm(ctx context.Context, spec Spec, chunk uint64) (*scheme.Instance, string, error) {
	if spec.ReuseWarm {
		if key, ok := warmKeyOf(spec); ok {
			master, hit, err := m.masters.Do(key, func() (*scheme.Instance, error) {
				return m.buildMaster(ctx, spec, chunk)
			})
			// A failure may be another caller's cancellation, which must not
			// poison the configuration for everyone: the memo has dropped
			// the entry so future runs retry, and this run retries
			// privately unless it was canceled itself.
			if err != nil && ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			// The master is frozen (immutable) once warmed, so concurrent
			// forks are safe, and it never advances: every run, the first
			// included, measures a dense fork.
			if err == nil {
				if c := master.Clone(); c != nil {
					if hit {
						return c, "fork", nil
					}
					return c, "fresh", nil
				}
			}
		}
	}
	inst, err := m.buildWarm(ctx, spec, chunk)
	return inst, "fresh", err
}

// buildMaster warms spec's arena master and freezes it (see
// scheme.Instance.Freeze): the arena keeps each master as a delta from the
// shared LLC template, and every fork expands it back to dense.
func (m *memos) buildMaster(ctx context.Context, spec Spec, chunk uint64) (*scheme.Instance, error) {
	inst, err := m.buildWarm(ctx, spec, chunk)
	if err != nil {
		return nil, err
	}
	inst.Freeze()
	return inst, nil
}
