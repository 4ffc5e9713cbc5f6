package boomsim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"boomsim/internal/program"
	"boomsim/internal/scheme"
	"boomsim/internal/workload"
)

// SchemeInfo describes one registered control-flow-delivery scheme. Every
// field is sourced from the scheme's declarative SchemeConfig — the listing
// carries the paper's Section VI-D storage accounting and, via Config, the
// full recipe a client can fetch, modify and resubmit as a custom scheme.
type SchemeInfo struct {
	// Name is the registry key, matching the paper's figures for the
	// built-in schemes.
	Name string `json:"name"`
	// Description summarises the mechanism.
	Description string `json:"description"`
	// StorageOverheadKB is the per-core metadata cost beyond the baseline
	// front end (the paper's Section VI-D accounting).
	StorageOverheadKB float64 `json:"storage_overhead_kb"`
	// Config is the scheme's complete declarative definition.
	Config SchemeConfig `json:"config"`
}

// WorkloadInfo describes one registered workload profile.
type WorkloadInfo struct {
	// Name is the registry key, matching the paper's Table II naming.
	Name string `json:"name"`
	// Description summarises the modelled server workload.
	Description string `json:"description"`
	// FootprintKB is the profile's calibrated instruction footprint.
	FootprintKB int `json:"footprint_kb"`
}

func toSchemeInfo(s scheme.Config) SchemeInfo {
	return SchemeInfo{
		Name:              s.Name,
		Description:       s.Description,
		StorageOverheadKB: s.StorageOverheadKB,
		Config:            s,
	}
}

func toWorkloadInfo(p workload.Profile) WorkloadInfo {
	return WorkloadInfo{
		Name:        p.Name,
		Description: p.Description,
		FootprintKB: p.Gen.FootprintKB,
	}
}

// registry is a name-keyed table that remembers registration order.
// Registration is rare (init time, test setup), lookup is per-New.
type registry[T any] struct {
	kind    string // "scheme" or "workload", for error text
	unknown error  // the sentinel a lookup miss wraps
	mu      sync.RWMutex
	byName  map[string]T
	order   []string
}

func newRegistry[T any](kind string, unknown error) *registry[T] {
	return &registry[T]{kind: kind, unknown: unknown, byName: map[string]T{}}
}

// add registers v under name; an empty or already-taken name is an error.
func (r *registry[T]) add(name string, v T) error {
	if name == "" {
		return fmt.Errorf("%w: %s with empty name", ErrInvalidOption, r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("%w: %s %q already registered", ErrInvalidOption, r.kind, name)
	}
	r.byName[name] = v
	r.order = append(r.order, name)
	return nil
}

// list returns every entry in registration order.
func (r *registry[T]) list() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]T, len(r.order))
	for i, name := range r.order {
		out[i] = r.byName[name]
	}
	return out
}

// lookup returns the named entry, or an error wrapping r.unknown that lists
// the registered names.
func (r *registry[T]) lookup(name string) (T, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byName[name]
	if !ok {
		names := append([]string(nil), r.order...)
		sort.Strings(names)
		return v, fmt.Errorf("%w: %q (have: %s)", r.unknown, name, strings.Join(names, ", "))
	}
	return v, nil
}

var (
	schemes   = newRegistry[scheme.Scheme]("scheme", ErrUnknownScheme)
	workloads = newRegistry[workload.Profile]("workload", ErrUnknownWorkload)
)

// RegisterScheme adds a scheme config to the registry under its Name.
// Schemes are declarative data (SchemeConfig), so callers — in-module
// ablation variants and external users alike — register plain configs;
// after registration the scheme is addressable by name from WithScheme,
// Schemes() and every consumer binary. Registering an invalid config or an
// already-taken name is an error.
func RegisterScheme(s SchemeConfig) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOption, err)
	}
	return schemes.add(s.Name, s)
}

// RegisterWorkload adds a workload profile to the registry under p.Name,
// making it addressable from WithWorkload and Workloads(). Registering an
// empty or already-taken name is an error.
func RegisterWorkload(p workload.Profile) error {
	return workloads.add(p.Name, p)
}

// Schemes lists every registered scheme in registration order (the paper's
// presentation order first, then extensions).
func Schemes() []SchemeInfo {
	all := schemes.list()
	out := make([]SchemeInfo, len(all))
	for i, s := range all {
		out[i] = toSchemeInfo(s)
	}
	return out
}

// Workloads lists every registered workload in registration order (Table II
// order first, then extensions).
func Workloads() []WorkloadInfo {
	all := workloads.list()
	out := make([]WorkloadInfo, len(all))
	for i, p := range all {
		out[i] = toWorkloadInfo(p)
	}
	return out
}

// DefaultSchemes returns the names of the six-plus-baseline schemes of the
// paper's headline figures (7-9), in presentation order.
func DefaultSchemes() []string {
	all := scheme.All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// LookupScheme returns the named scheme's metadata, or ErrUnknownScheme.
func LookupScheme(name string) (SchemeInfo, error) {
	s, err := schemes.lookup(name)
	if err != nil {
		return SchemeInfo{}, err
	}
	return toSchemeInfo(s), nil
}

// LookupWorkload returns the named workload's metadata, or
// ErrUnknownWorkload.
func LookupWorkload(name string) (WorkloadInfo, error) {
	p, err := workloads.lookup(name)
	if err != nil {
		return WorkloadInfo{}, err
	}
	return toWorkloadInfo(p), nil
}

// BuildImage generates the named workload's code image with the given seed.
// It is the escape hatch for tools that drive internal packages directly
// (trace recording, walker statistics) while still resolving workloads
// through the public registry.
func BuildImage(workloadName string, imageSeed uint64) (*program.Image, error) {
	p, err := workloads.lookup(workloadName)
	if err != nil {
		return nil, err
	}
	return p.Image(imageSeed)
}

func mustRegister(err error) {
	if err != nil {
		panic(err)
	}
}

// init seeds the registries with everything the paper evaluates: the six
// headline schemes plus the baseline, the limit studies of Figure 1, PIF,
// the hierarchical-BTB alternatives of Section II-C, the miss-policy
// variants, and the Table II workloads plus the SPEC-like contrast profile.
func init() {
	for _, s := range scheme.Builtins() {
		mustRegister(RegisterScheme(s))
	}

	for _, p := range workload.Profiles { // Table II: Nutch, Streaming, Apache, Zeus, Oracle, DB2
		mustRegister(RegisterWorkload(p))
	}
	mustRegister(RegisterWorkload(workload.SPECLike()))
}
