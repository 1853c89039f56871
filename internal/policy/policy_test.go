package policy_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"videocdn/internal/core"
	"videocdn/internal/policy"
	_ "videocdn/internal/policy/all"
	"videocdn/internal/trace"
)

func testCfg() core.Config {
	return core.Config{ChunkSize: 1024, DiskChunks: 32}
}

// builtins is the policy set this repository ships; the registry must
// expose at least these.
var builtins = []string{"admit", "alphactl", "belady", "cafe", "gdsp", "lru", "lruk", "lruq", "psychic", "writelimit", "xlru"}

func TestNamesSortedAndComplete(t *testing.T) {
	names := policy.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range builtins {
		if !have[want] {
			t.Errorf("builtin policy %q not registered (have %v)", want, names)
		}
	}
}

func TestLookup(t *testing.T) {
	spec, ok := policy.Lookup("cafe")
	if !ok || spec.Name != "cafe" {
		t.Fatalf("Lookup(cafe) = %+v, %v", spec, ok)
	}
	if !spec.Accepts("gamma") || spec.Accepts("nonexistent") {
		t.Error("Accepts misreports the cafe schema")
	}
	if _, ok := policy.Lookup("nosuch"); ok {
		t.Error("Lookup of unregistered name succeeded")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register should panic", name)
			}
		}()
		f()
	}
	dummy := func(cfg core.Config, p policy.Params) (core.Cache, error) {
		return nil, fmt.Errorf("dummy")
	}
	mustPanic("empty name", func() { policy.Register(policy.Spec{New: dummy}) })
	mustPanic("nil factory", func() { policy.Register(policy.Spec{Name: "zztest-nofactory"}) })
	mustPanic("empty field key", func() {
		policy.Register(policy.Spec{Name: "zztest-badfield", New: dummy, Fields: []policy.Field{{}}})
	})
	policy.Register(policy.Spec{Name: "zztest-dup", New: dummy})
	defer policy.UnregisterForTesting("zztest-dup")
	mustPanic("duplicate", func() { policy.Register(policy.Spec{Name: "zztest-dup", New: dummy}) })
}

func TestNewUnknown(t *testing.T) {
	_, err := policy.New("nosuch", testCfg(), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("err = %v", err)
	}
}

func TestValidationRejects(t *testing.T) {
	cases := []struct {
		name string
		p    policy.Params
		want string // substring of the error
	}{
		{"cafe", policy.Params{"bogus": 1}, "unknown config key"},
		{"cafe", policy.Params{"gamma": "not-a-float"}, "as float"},
		{"cafe", policy.Params{"file_level": "maybe"}, "as bool"},
		{"lruq", policy.Params{"q": "2.5"}, "as int"},
		{"lruq", policy.Params{"q": 2.5}, "not an integer"},
		{"lruq", policy.Params{"q": 1 << 20}, "in [1,"}, // Check hook, upper bound
		{"lruq", policy.Params{"q": 0}, "in [1,"},       // Check hook, lower bound
		{"lruq", policy.Params{"q": []int{1}}, "want int"},
		{"belady", nil, "missing required config key"},
		{"belady", policy.Params{"trace": "later"}, "future trace"},
		{"admit", policy.Params{"inner": "nosuch"}, "unknown inner policy"},
		{"admit", policy.Params{"inner": "belady"}, "cannot wrap offline"},
		{"alphactl", policy.Params{"inner": "lru"}, "no tunable alpha"},
		{"alphactl", policy.Params{"inner": "cafe", "inner.gamma": "x"}, "as float"},
		{"alphactl", policy.Params{"target_ingress": 1.5}, "target ingress"},
		{"writelimit", policy.Params{"inner": "gdsp"}, "takes no fill gate"},
		{"writelimit", policy.Params{"per_window": 0}, "perWindow must be positive"},
	}
	for _, c := range cases {
		_, err := policy.New(c.name, testCfg(), c.p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%s, %v): err = %v, want substring %q", c.name, c.p, err, c.want)
		}
	}
}

// TestStringCoercion pins the CLI path: "k=v" flag values arrive as
// strings and must coerce to every declared kind.
func TestStringCoercion(t *testing.T) {
	c, err := policy.New("cafe", testCfg(), policy.Params{
		"gamma": "0.5", "window_scale": "2", "file_level": "true",
	})
	if err != nil {
		t.Fatalf("string params rejected: %v", err)
	}
	if c == nil || c.Name() != "cafe" {
		t.Fatalf("bad cache: %v", c)
	}
	if _, err := policy.New("lruq", testCfg(), policy.Params{"q": " 8 "}); err != nil {
		t.Errorf("padded int string rejected: %v", err)
	}
	// Ints widen to floats, but floats never narrow silently.
	if _, err := policy.New("cafe", testCfg(), policy.Params{"gamma": 1}); err != nil {
		t.Errorf("int for float rejected: %v", err)
	}
}

// TestCallerParamsNotMutated: validation must work on a copy.
func TestCallerParamsNotMutated(t *testing.T) {
	p := policy.Params{"gamma": "0.5"}
	orig := policy.Params{"gamma": "0.5"}
	if _, err := policy.New("cafe", testCfg(), p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, orig) {
		t.Errorf("caller's params mutated: %v", p)
	}
}

func TestParseParams(t *testing.T) {
	p, err := policy.ParseParams("q=8, inner.gamma =0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := policy.Params{"q": "8", "inner.gamma": "0.5"}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("ParseParams = %v, want %v", p, want)
	}
	if p, err := policy.ParseParams("  "); err != nil || len(p) != 0 {
		t.Errorf("blank input: %v, %v", p, err)
	}
	for _, bad := range []string{"novalue", "=5", "a=1,,b=2"} {
		if _, err := policy.ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q) should fail", bad)
		}
	}
}

// TestParseSpecRoundTrip writes every registered policy's schema
// defaults out as a spec and parses it back: the name and every
// key=value pair survive, and the parsed params build the policy.
func TestParseSpecRoundTrip(t *testing.T) {
	for _, name := range policy.Names() {
		spec, _ := policy.Lookup(name)
		want := policy.Params{}
		var kv []string
		for _, f := range spec.Fields {
			if f.Kind == policy.KindTrace {
				continue
			}
			v := fmt.Sprint(f.Default)
			want[f.Key] = v
			kv = append(kv, f.Key+"="+v)
		}
		s := name
		if len(kv) > 0 {
			s += ":" + strings.Join(kv, ",")
		}
		gotName, got, err := policy.ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if gotName != name || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseSpec(%q) = %q, %v; want %q, %v", s, gotName, got, name, want)
		}
		if spec.NeedsTrace {
			continue
		}
		if _, err := policy.New(gotName, testCfg(), got); err != nil {
			t.Errorf("%q: defaults written as a spec do not build: %v", s, err)
		}
	}
	if name, p, err := policy.ParseSpec(" lruq "); err != nil || name != "lruq" || len(p) != 0 {
		t.Errorf("bare name: %q, %v, %v", name, p, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{"", ":q=1", " :q=1", "lruq:q", "lruq:=1", "lruq:q=1,,q=2"} {
		if _, _, err := policy.ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestFactory(t *testing.T) {
	f, err := policy.Factory("admit:inner=lruq,inner.q=2", policy.Env{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		c, err := f(shard, testCfg())
		if err != nil || c.Name() != "admit(lruq)" {
			t.Fatalf("shard %d: %v, %v", shard, c, err)
		}
	}
	if _, err := f(0, core.Config{ChunkSize: 1024}); err == nil {
		t.Error("zero disk accepted")
	}
	for _, bad := range []string{"", "nosuch", "cafe:gamma"} {
		if _, err := policy.Factory(bad, policy.Env{}); err == nil {
			t.Errorf("Factory(%q) should fail", bad)
		}
	}
	// Params are checked when an instance is built.
	f, err = policy.Factory("cafe:nope=1", policy.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f(0, testCfg()); err == nil || !strings.Contains(err.Error(), "unknown config key") {
		t.Errorf("err = %v", err)
	}
	// An offline policy builds shard 0 only: a shard sees a sub-trace.
	reqs := []trace.Request{{Time: 0, Video: 1, Start: 0, End: 1023}}
	f, err = policy.Factory("psychic:strict=true", policy.Env{Future: func() []trace.Request { return reqs }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f(0, testCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := f(1, testCfg()); err == nil || !strings.Contains(err.Error(), "cannot be sharded") {
		t.Errorf("shard 1 of psychic: err = %v", err)
	}
}

func TestNewWithEnvAlphaInjection(t *testing.T) {
	// cafe accepts alpha: env alpha must not override an explicit one.
	c, err := policy.NewWithEnv("cafe", testCfg(), policy.Env{Alpha: 4}, policy.Params{"alpha": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "cafe" {
		t.Fatal("bad cache")
	}
	// gdsp's schema has no alpha: env alpha must not leak in as an
	// unknown key.
	if _, err := policy.NewWithEnv("gdsp", testCfg(), policy.Env{Alpha: 4}, nil); err != nil {
		t.Errorf("alpha leaked into gdsp params: %v", err)
	}
	// A bogus env alpha must still be rejected (by the factory).
	if _, err := policy.NewWithEnv("cafe", testCfg(), policy.Env{Alpha: -1}, nil); err == nil {
		t.Error("negative alpha accepted")
	}
}

func TestNewWithEnvTrace(t *testing.T) {
	reqs := []trace.Request{{Time: 0, Video: 1, Start: 0, End: 1023}}
	called := false
	c, err := policy.NewWithEnv("belady", testCfg(), policy.Env{Future: func() []trace.Request {
		called = true
		return reqs
	}}, nil)
	if err != nil || c == nil {
		t.Fatalf("belady via env future: %v", err)
	}
	if !called {
		t.Error("Future was not consulted")
	}
	// No future available (live server): clear error, no panic.
	_, err = policy.NewWithEnv("psychic", testCfg(), policy.Env{Alpha: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "future trace") {
		t.Errorf("err = %v", err)
	}
	// Online policies never consult Future.
	_, err = policy.NewWithEnv("lru", testCfg(), policy.Env{Future: func() []trace.Request {
		t.Error("online policy materialized the trace")
		return nil
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[policy.Kind]string{
		policy.KindFloat: "float", policy.KindInt: "int", policy.KindBool: "bool",
		policy.KindString: "string", policy.KindTrace: "trace", policy.Kind(99): "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
