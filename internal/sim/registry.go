package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/prefetch"
)

// engine is one prefetcher: the levels ("l1d", "l2c", "l1i") that accept
// it, its constructor and, for an L1D engine, its ISO-Storage variant,
// which spends DRIPPER's 1.44KB budget on the main table instead (doubling
// the table comfortably covers it).
type engine struct {
	levels   []string
	new, iso func() prefetch.Prefetcher
}

// prefetchers is the prefetcher vocabulary; "" and "none" build nothing.
var prefetchers = map[string]engine{
	"berti":    {[]string{"l1d"}, ctor(prefetch.NewBerti), sized(prefetch.NewBertiSized, 512)},
	"ipcp":     {[]string{"l1d", "l2c"}, ctor(prefetch.NewIPCP), sized(prefetch.NewIPCPSized, 1024)},
	"bop":      {[]string{"l1d", "l2c"}, ctor(prefetch.NewBOP), sized(prefetch.NewBOPSized, 512)},
	"spp":      {[]string{"l2c"}, ctor(prefetch.NewSPP), nil},
	"nextline": {[]string{"l1i"}, func() prefetch.Prefetcher { return &prefetch.NextLine{} }, nil},
	"fnl+mma":  {[]string{"l1i"}, ctor(prefetch.NewFNLMMA), nil},
}

func ctor[P prefetch.Prefetcher](f func() P) func() prefetch.Prefetcher {
	return func() prefetch.Prefetcher { return f() }
}

func sized[P prefetch.Prefetcher](f func(int) P, n int) func() prefetch.Prefetcher {
	return func() prefetch.Prefetcher { return f(n) }
}

// policies is the policy vocabulary of §V-A. A builder takes the L1D
// prefetcher's name, which tunes DRIPPER's program features.
var policies = map[PolicyKind]func(l1dPf string) (core.Policy, error){
	PolicyPermit:     fixed(core.PermitPGC{}),
	PolicyDiscard:    fixed(core.DiscardPGC{}),
	PolicyDiscardPTW: fixed(core.DiscardPTW{}),
	PolicyDripper:    func(pf string) (core.Policy, error) { return filterPolicy(core.DefaultDripperConfig(pf)) },
	PolicyPPF:        func(string) (core.Policy, error) { return filterPolicy(core.PPFConfig()) },
	PolicyPPFDthr:    func(string) (core.Policy, error) { return filterPolicy(core.PPFDthrConfig()) },
	PolicyDripperSF:  func(pf string) (core.Policy, error) { return filterPolicy(core.DripperSFConfig(pf)) },
}

func fixed(p core.Policy) func(string) (core.Policy, error) {
	return func(string) (core.Policy, error) { return p, nil }
}

func filterPolicy(cfg core.Config) (core.Policy, error) {
	f, err := core.NewFilter(cfg)
	if err != nil {
		return nil, err
	}
	return core.NewFilterPolicy(f), nil
}

// PrefetcherNames lists, sorted, the prefetchers level ("l1d", "l2c" or
// "l1i") accepts besides "none".
func PrefetcherNames(level string) []string {
	var names []string
	for name, e := range prefetchers {
		if slices.Contains(e.levels, level) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// PolicyNames lists the page-cross policies, sorted.
func PolicyNames() []string {
	var names []string
	for k := range policies {
		names = append(names, string(k))
	}
	sort.Strings(names)
	return names
}

// newPrefetcher builds the named engine for level, nil for "" and "none".
func newPrefetcher(level, name string, iso bool) (prefetch.Prefetcher, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	e, ok := prefetchers[name]
	if !ok || !slices.Contains(e.levels, level) {
		return nil, fmt.Errorf("sim: unknown %s prefetcher %q", strings.ToUpper(level), name)
	}
	if iso && e.iso != nil {
		return e.iso(), nil
	}
	return e.new(), nil
}

// newPolicy builds the configured page-cross policy: ISO-Storage forces
// Permit PGC, a FilterConfig overrides the named policy, and "" is Discard
// PGC.
func newPolicy(cfg Config) (core.Policy, error) {
	if cfg.ISOStorage {
		return core.PermitPGC{}, nil
	}
	if cfg.FilterConfig != nil {
		return filterPolicy(*cfg.FilterConfig)
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyDiscard
	}
	build, ok := policies[cfg.Policy]
	if !ok {
		return nil, fmt.Errorf("sim: unknown policy %q", cfg.Policy)
	}
	return build(cfg.L1DPrefetcher)
}

// CheckNames returns the error New would return for c's prefetchers and
// page-cross policy, building only those.
func (c Config) CheckNames() error {
	for _, p := range [...][2]string{{"l1d", c.L1DPrefetcher}, {"l2c", c.L2CPrefetcher}, {"l1i", c.L1IPrefetcher}} {
		if _, err := newPrefetcher(p[0], p[1], false); err != nil {
			return err
		}
	}
	_, err := newPolicy(c)
	return err
}
