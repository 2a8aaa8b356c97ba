package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// checkPreimage fails t unless the plan writes json.Marshal's bytes for
// p, and returns the key those bytes give: what KeyOf computed before it
// wrote the pre-image itself.
func checkPreimage(t testing.TB, name string, p *keyPayload) Key {
	t.Helper()
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", name, err)
	}
	got, err := appendPreimage(nil, p)
	if err != nil || !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: plan wrote (err %v), from byte %d,\n%.80s\njson.Marshal wrote\n%.80s", name, err, i, got[i:], want[i:])
	}
	sum := sha256.Sum256(want)
	return Key(hex.EncodeToString(sum[:]))
}

// keyedConfig is one configuration a campaign keys.
type keyedConfig struct {
	name string
	cfg  sim.Config
}

// keyedConfigs returns the configurations the experiments key: each
// page-cross policy (the scenario* constructors set one, or ISOStorage),
// the ablation filters (a non-nil FilterConfig with nil and non-nil
// feature lists, a *int threshold and float thresholds), the L2
// prefetchers, large pages and filter@2MB, an sTLB sweep point, a
// sampled and a checked configuration.
func keyedConfigs() []keyedConfig {
	var out []keyedConfig
	add := func(name string, mutate func(c *sim.Config)) {
		c := sim.DefaultConfig()
		mutate(&c)
		out = append(out, keyedConfig{name, c})
	}
	add("default", func(c *sim.Config) {})
	for _, p := range sim.PolicyNames() {
		add("policy "+p, func(c *sim.Config) { c.Policy = sim.PolicyKind(p) })
	}
	add("iso", func(c *sim.Config) { c.ISOStorage = true })
	filters := map[string]core.Config{"ppf": core.PPFConfig(), "ppf+dthr": core.PPFDthrConfig()}
	for _, pf := range []string{"berti", "bop", "ipcp"} {
		fc := core.DefaultDripperConfig(pf)
		fc.VUBEntries = 1
		filters["vub "+pf] = fc
		filters["dripper-sf "+pf] = core.DripperSFConfig(pf)
	}
	for _, feat := range core.AllFeatureNames() {
		filters["only "+feat] = core.SingleFeatureConfig(feat)
	}
	for name, fc := range filters {
		add("filter "+name, func(c *sim.Config) { c.FilterConfig = &fc })
	}
	for _, l2 := range []string{"spp", "ipcp", "bop"} {
		add("l2 "+l2, func(c *sim.Config) { c.L2CPrefetcher = l2; c.Policy = sim.PolicyDripper })
	}
	add("large pages", func(c *sim.Config) { c.VMem.LargePages, c.VMem.LargePageFraction = true, 0.5 })
	add("filter@2MB", func(c *sim.Config) {
		c.VMem.LargePages, c.VMem.LargePageFraction = true, 0.5
		c.Policy, c.FilterAt2MB = sim.PolicyDripper, true
	})
	add("stlb", func(c *sim.Config) { c.MMU.STLB = tlb.Config{Name: "stlb", Sets: 32, Ways: 12, Latency: 8} })
	add("sampled", func(c *sim.Config) {
		c.Sample = sim.SampleConfig{Enabled: true, IntervalInstrs: 1_000, RampInstrs: 500, Seed: 7}
	})
	add("checked", func(c *sim.Config) { c.Check = sim.CheckConfig{Enabled: true, MaxViolations: 3} })
	return out
}

// keyedWorkloads is every registry workload and the ChampSim fixture,
// whose Source the key carries.
func keyedWorkloads(t testing.TB) []trace.Workload {
	t.Helper()
	ext, err := trace.LoadChampSim(champSimFixture)
	if err != nil {
		t.Fatal(err)
	}
	return append(trace.All(), ext)
}

// TestKeyPreimageMatchesMarshal: for every configuration the experiments
// key, over every workload, the plan writes json.Marshal's exact bytes and
// KeyOf and MixKeyOf (over DefaultMultiConfig with each configuration per
// core, and mixes of up to 33 workloads led by the ChampSim one) return
// the key those bytes give.
func TestKeyPreimageMatchesMarshal(t *testing.T) {
	ws := keyedWorkloads(t)
	for _, kc := range keyedConfigs() {
		for _, w := range ws {
			wk, err := cellWorkloadKey(w)
			if err != nil {
				t.Fatal(err)
			}
			cfg := kc.cfg
			p := &keyPayload{Schema: SchemaVersion, Config: &cfg, Workloads: []workloadKey{wk}}
			want := checkPreimage(t, kc.name+" × "+w.Name, p)
			if k, err := KeyOf(kc.cfg, w); err != nil || k != want {
				t.Fatalf("%s × %s: KeyOf = %s, %v; want json.Marshal's %s", kc.name, w.Name, k, err, want)
			}
		}
	}
	mixed := []trace.Workload{ws[len(ws)-1]}
	for _, mix := range trace.Mixes(4, 8) {
		mixed = append(mixed, mix...)
	}
	for _, per := range keyedConfigs() {
		mc := sim.DefaultMultiConfig()
		mc.PerCore = per.cfg
		for n := 1; n <= len(mixed); n += 8 {
			mix := mixed[:n]
			wks := make([]workloadKey, len(mix))
			for i, w := range mix {
				wks[i], _ = cellWorkloadKey(w)
			}
			m := mc
			p := &keyPayload{Schema: SchemaVersion, Multi: &m, Workloads: wks}
			want := checkPreimage(t, fmt.Sprintf("mix %s × %d", per.name, n), p)
			if k, err := MixKeyOf(mc, mix); err != nil || k != want {
				t.Fatalf("mix %s × %d: MixKeyOf = %s, %v; want json.Marshal's %s", per.name, n, k, err, want)
			}
		}
	}
}

// TestKeyOfPinnedKeys pins three keys computed when KeyOf still hashed
// json.Marshal's output: a cache filled then must still hit.
func TestKeyOfPinnedKeys(t *testing.T) {
	k, err := KeyOf(sim.DefaultConfig(), workload(t, "spec.stream_s00"))
	if want := Key("35dfafb8f70a2fea793a2516fb73cafb0e2966c501ed9e7adf66f4f0b4f9e5d2"); err != nil || k != want {
		t.Errorf("default × spec.stream_s00: %s, %v; want %s", k, err, want)
	}

	cfg := sim.DefaultConfig()
	cfg.Policy = sim.PolicyDripper
	fc := core.PPFConfig()
	cfg.FilterConfig = &fc
	k, err = KeyOf(cfg, workload(t, "spec.phased_s00"))
	if want := Key("77ace5c92789f04386b98eb34d04df53df9c6345ffb143aecd38dafb3cb7d532"); err != nil || k != want {
		t.Errorf("PPF filter × spec.phased_s00: %s, %v; want %s", k, err, want)
	}

	ext, err := trace.LoadChampSim(champSimFixture)
	if err != nil {
		t.Fatal(err)
	}
	mc := sim.DefaultMultiConfig()
	mc.Cores = 2
	k, err = MixKeyOf(mc, []trace.Workload{workload(t, "spec.stream_s00"), ext})
	if want := Key("3a3db11047cf7ed1ba999a4bfcaa6b7d1bcc8ad59ce38409c128b04e20242919"); err != nil || k != want {
		t.Errorf("2-core mix with a ChampSim source: %s, %v; want %s", k, err, want)
	}
}

// TestKeyOfAllocBudget bounds KeyOf's heap allocations: the key string
// (1); the pre-image is written into a stack buffer. It measures 1;
// hashing json.Marshal's output made 6.
func TestKeyOfAllocBudget(t *testing.T) {
	cfg, w := sim.DefaultConfig(), workload(t, "spec.stream_s00")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := KeyOf(cfg, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("KeyOf allocates %.0f times, budget 2", allocs)
	}
}

// planBytes writes v through a plan for its type.
func planBytes(v any) ([]byte, error) {
	rv := reflect.New(reflect.TypeOf(v))
	rv.Elem().Set(reflect.ValueOf(v))
	p, err := newTypePlan(rv.Elem().Type())
	if err != nil {
		return nil, err
	}
	return p.encode(nil, rv.UnsafePointer())
}

// TestKeyPlanCoversPayload: the plan builds for keyPayload, so a keyed
// type it cannot write fails here, not as every cell going uncacheable.
// Each shape it supports writes json.Marshal's bytes, and each it does not
// is refused.
func TestKeyPlanCoversPayload(t *testing.T) {
	if keyPlanErr != nil {
		t.Fatal(keyPlanErr)
	}
	type leaf struct{ X int }
	type omits struct {
		X int `json:"x,omitempty"`
	}
	type name string
	n := 7
	for _, ok := range []any{
		struct{}{},
		struct {
			A int8
			B int16
			C int32
			D int64
			E uint8
			F uint16
			G uint32
			H uintptr
			I uint
			J [3]uint8
			K name
			L [0]int `json:",omitempty"`
		}{math.MinInt8, math.MinInt16, math.MinInt32, math.MinInt64, math.MaxUint8, math.MaxUint16, math.MaxUint32, 1, math.MaxUint64 >> 1, [3]uint8{1, 2, 3}, "<n>", [0]int{}},
		struct {
			A int     `json:"a,omitempty"`
			B bool    `json:"b,omitempty"`
			C string  `json:"c,omitempty"`
			D float64 `json:"d,omitempty"`
			E *int    `json:"e,omitempty"`
			F []int   `json:"f,omitempty"`
			G uint    `json:"g,omitempty"`
			H leaf    `json:"h,omitempty"`
		}{},
		struct {
			A int     `json:"a,omitempty"`
			B bool    `json:"b,omitempty"`
			C string  `json:"c,omitempty"`
			D float64 `json:"d,omitempty"`
			E *int    `json:"e,omitempty"`
			F []int   `json:"f,omitempty"`
		}{-1, true, "c", math.Copysign(0, -1), &n, []int{}},
		struct {
			a    int
			B    int `json:"-"`
			C    int `json:"-,"`
			Dash int `json:"x-y.z_1"`
		}{1, 2, 3, 4},
		struct {
			A leaf
			B omits
			C struct{}
			D struct{ E, F leaf }
			G int `json:",omitempty"`
			H struct{ I struct{ J leaf } }
			K *leaf
			L []leaf
			M [][]int
			N *struct{ O omits }
		}{A: leaf{1}, D: struct{ E, F leaf }{leaf{2}, leaf{3}}, K: &leaf{4}, L: []leaf{{5}, {6}}, M: [][]int{nil, {}, {7}}},
		struct {
			A omits
			B leaf
		}{},
		struct{ A, B, C, D, E, F float64 }{1e-6, 1e-7, 1e21, 999999999999999900000, 5e-324, -1.5e-300},
	} {
		want, err := json.Marshal(ok)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := planBytes(ok); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%T: plan wrote %s (%v), json.Marshal %s", ok, got, err, want)
		}
	}
	type self struct{ Next *self }
	for _, bad := range []any{
		struct{ A map[string]int }{},
		struct{ A any }{},
		struct{ A float32 }{},
		struct{ A complex128 }{},
		struct{ A []byte }{},
		struct{ A chan int }{},
		struct{ A func() }{},
		struct{ leaf }{},
		struct {
			A int `json:"a,string"`
		}{},
		struct {
			A int `json:"a,omitzero"`
		}{},
		struct {
			A int `json:"a b"`
		}{},
		struct {
			A int
			B int `json:"A"`
		}{},
		struct{ A time.Time }{},
		struct{ A json.Number }{},
		struct{ A json.RawMessage }{},
		self{},
	} {
		if _, err := newTypePlan(reflect.TypeOf(bad)); err == nil {
			t.Errorf("%T: plan built for a type json.Marshal may write otherwise", bad)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := planBytes(struct{ A float64 }{f}); err == nil {
			t.Errorf("plan wrote %v, which json.Marshal refuses", f)
		}
	}
}
