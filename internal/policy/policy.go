// Package policy is the registry every caching algorithm in this
// repository registers itself with: one name, one config schema, one
// factory. Drivers (cdnsim, the HTTP edge server, the oracle checker,
// the figure suite, bench/) resolve policies exclusively through
// this registry, so adding a contender is one package plus one
// Register call — never another switch statement in six files.
//
// A policy's configuration travels as a loosely typed Params map. The
// registry validates it against the registered schema before the
// factory ever sees it: unknown keys are rejected, missing keys get
// the schema's defaults, and string values (the form CLI "k=v" flags
// arrive in) are coerced to the declared kind. New never panics on any
// (name, params) input — it returns a validated policy or an error,
// which is exactly the property FuzzPolicyConfig pins.
//
// Importing this package alone gives an empty registry; import
// videocdn/internal/policy/all (blank import) to register the
// built-in policies.
package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"videocdn/internal/core"
	"videocdn/internal/trace"
)

// Params carries a policy's configuration as key → value. Values may
// be the schema's native Go types or strings (coerced during
// validation); the special key "trace" of offline policies holds a
// []trace.Request and cannot be expressed as a string.
type Params map[string]any

// Kind is the declared type of one schema field.
type Kind uint8

const (
	// KindFloat is a float64 parameter (strings parse via ParseFloat).
	KindFloat Kind = iota
	// KindInt is an int parameter.
	KindInt
	// KindBool is a bool parameter.
	KindBool
	// KindString is a free-form string parameter.
	KindString
	// KindTrace is a []trace.Request parameter — the full future
	// request sequence offline policies (belady, psychic) precompute
	// against. It cannot be set from a string.
	KindTrace
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindTrace:
		return "trace"
	default:
		return "unknown"
	}
}

// Field declares one configuration key of a policy's schema.
type Field struct {
	// Key is the parameter name (e.g. "gamma", "q").
	Key string
	// Kind is the value type; provided values are coerced to it.
	Kind Kind
	// Default is the value used when the key is absent. A nil Default
	// marks the field required (used by "trace").
	Default any
	// Doc is the one-line description shown in CLI help and README.
	Doc string
	// Check optionally validates the coerced value (range checks the
	// factory would otherwise duplicate).
	Check func(v any) error
}

// Spec is one registered policy.
type Spec struct {
	// Name is the registry key ("cafe", "xlru", "lruq", ...).
	Name string
	// Doc is the one-line description for CLI help and README.
	Doc string
	// Fields is the config schema; keys not listed here are rejected
	// (except a wrapper's InnerPrefix keys).
	Fields []Field
	// NeedsTrace marks offline policies that precompute against the
	// full future request sequence. They require the "trace" param,
	// cannot be sharded (a shard would see only a sub-trace), and
	// cannot serve live traffic.
	NeedsTrace bool
	// Wrapper marks a policy composed over another registered one,
	// named by its "inner" key: keys with InnerPrefix bypass schema
	// validation and reach the factory verbatim, for NewInner.
	Wrapper bool
	// New builds the policy from a schema-validated Params map: every
	// declared field is present (defaults applied) with its declared
	// Go type, so factories may type-assert without checking.
	New func(cfg core.Config, p Params) (core.Cache, error)
}

// Accepts reports whether the schema declares key.
func (s *Spec) Accepts(key string) bool {
	for _, f := range s.Fields {
		if f.Key == key {
			return true
		}
	}
	return false
}

// InnerPrefix marks the params a wrapper forwards to the policy it
// wraps: "inner.q=8" configures an inner lruq's q.
const InnerPrefix = "inner."

var (
	mu       sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds a policy to the registry. It panics on an invalid
// spec or duplicate name — registration happens in package init, where
// a panic is an immediate, loud programmer error.
func Register(s Spec) {
	if s.Name == "" || s.New == nil {
		panic("policy: Register needs a name and a factory")
	}
	for _, f := range s.Fields {
		if f.Key == "" {
			panic(fmt.Sprintf("policy %q: empty field key", s.Name))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
}

// Names returns the registered policy names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// New builds the named policy over cfg with the given parameters. The
// params are validated against the registered schema (unknown keys
// rejected, defaults applied, strings coerced); the caller's map is
// never mutated. It never panics: any name and any params map yield a
// policy or an error.
func New(name string, cfg core.Config, p Params) (core.Cache, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	vp, err := validate(&spec, p)
	if err != nil {
		return nil, fmt.Errorf("policy %q: %w", name, err)
	}
	c, err := spec.New(cfg, vp)
	if err != nil {
		// Return an untyped nil: factories declared over concrete types
		// (`return New(cfg, ...)`) yield a typed-nil interface on their
		// error path, which callers would mistake for a usable cache.
		return nil, fmt.Errorf("policy %q: %w", name, err)
	}
	return c, nil
}

// Env carries the driver-owned cross-cutting inputs a policy may need
// beyond its own schema: the cost-model alpha and the future trace.
type Env struct {
	// Alpha is the fill-to-redirect preference alpha_F2R, injected as
	// the "alpha" param into policies whose schema declares it (and
	// not already set explicitly). Zero leaves schema defaults alone.
	Alpha float64
	// Future lazily materializes the full request sequence for
	// offline policies. nil means the driver cannot provide it (live
	// servers); building a NeedsTrace policy then fails with a clear
	// error instead of a hand-maintained name list.
	Future func() []trace.Request
}

// NewWithEnv is New plus environment injection: alpha where the schema
// accepts it, the future trace where the policy requires it.
func NewWithEnv(name string, cfg core.Config, env Env, p Params) (core.Cache, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	vp := make(Params, len(p)+2)
	for k, v := range p {
		vp[k] = v
	}
	if env.Alpha != 0 && spec.Accepts("alpha") {
		if _, set := vp["alpha"]; !set {
			vp["alpha"] = env.Alpha
		}
	}
	if spec.NeedsTrace {
		if _, set := vp["trace"]; !set {
			if env.Future == nil {
				return nil, fmt.Errorf("policy %q: requires the full future trace (offline-only; it cannot serve live traffic)", name)
			}
			vp["trace"] = env.Future()
		}
	}
	return New(name, cfg, vp)
}

// NewInner builds the policy a wrapper's validated params name: the
// "inner" key is the registered name, InnerPrefix keys are its params,
// and the wrapper's own "alpha", when its schema declares one, reaches
// an inner whose schema accepts alpha and that was not given one. An
// offline inner is refused: a wrapper cannot hand it the future trace.
func NewInner(cfg core.Config, p Params) (core.Cache, error) {
	name, _ := p["inner"].(string)
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown inner policy %q", name)
	}
	if spec.NeedsTrace {
		return nil, fmt.Errorf("cannot wrap offline policy %q", name)
	}
	inner := Params{}
	for k, v := range p {
		if strings.HasPrefix(k, InnerPrefix) {
			inner[strings.TrimPrefix(k, InnerPrefix)] = v
		}
	}
	if a, ok := p["alpha"]; ok && spec.Accepts("alpha") {
		if _, set := inner["alpha"]; !set {
			inner["alpha"] = a
		}
	}
	return New(name, cfg, inner)
}

// ParseSpec parses a policy spec, "name" or "name:k=v,k2=v2", into
// the registered name and its params (all values strings; validation
// coerces them).
func ParseSpec(spec string) (string, Params, error) {
	name, rest, _ := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("policy: spec %q names no policy", spec)
	}
	p, err := ParseParams(rest)
	if err != nil {
		return "", nil, fmt.Errorf("policy: spec %q: %w", spec, err)
	}
	return name, p, nil
}

// Factory resolves a spec (see ParseSpec) and returns the factory
// that builds one instance of it per shard, over that shard's share
// of the configuration, through NewWithEnv: the form shard.New and
// the edge server's CacheFactory take. An offline policy builds shard
// 0 only, as a shard would see just a sub-trace of its future.
func Factory(spec string, env Env) (func(shard int, cfg core.Config) (core.Cache, error), error) {
	name, p, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	return func(shard int, cfg core.Config) (core.Cache, error) {
		if shard > 0 && s.NeedsTrace {
			return nil, fmt.Errorf("policy %q: an offline policy cannot be sharded", name)
		}
		return NewWithEnv(name, cfg, env, p)
	}, nil
}

// ParseParams parses a CLI "k=v,k2=v2" string into Params (all values
// strings; validation coerces them). Empty input yields empty Params.
func ParseParams(s string) (Params, error) {
	p := Params{}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return nil, fmt.Errorf("policy: bad param %q (want key=value)", part)
		}
		p[k] = strings.TrimSpace(v)
	}
	return p, nil
}

// validate checks p against the schema and returns a fresh map with
// defaults applied and values coerced to their declared kinds.
func validate(spec *Spec, p Params) (Params, error) {
	vp := make(Params, len(spec.Fields)+len(p))
	for k, v := range p {
		if spec.Wrapper && strings.HasPrefix(k, InnerPrefix) {
			vp[k] = v // validated recursively by the inner policy
			continue
		}
		f, ok := fieldOf(spec, k)
		if !ok {
			return nil, fmt.Errorf("unknown config key %q (schema: %s)", k, schemaKeys(spec))
		}
		cv, err := coerce(f.Kind, v)
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", k, err)
		}
		if f.Check != nil {
			if err := f.Check(cv); err != nil {
				return nil, fmt.Errorf("key %q: %w", k, err)
			}
		}
		vp[k] = cv
	}
	for _, f := range spec.Fields {
		if _, set := vp[f.Key]; set {
			continue
		}
		if f.Default == nil {
			return nil, fmt.Errorf("missing required config key %q (%s)", f.Key, f.Kind)
		}
		vp[f.Key] = f.Default
	}
	return vp, nil
}

func fieldOf(spec *Spec, key string) (Field, bool) {
	for _, f := range spec.Fields {
		if f.Key == key {
			return f, true
		}
	}
	return Field{}, false
}

func schemaKeys(spec *Spec) string {
	if len(spec.Fields) == 0 {
		return "none"
	}
	keys := make([]string, len(spec.Fields))
	for i, f := range spec.Fields {
		keys[i] = f.Key
	}
	if spec.Wrapper {
		keys = append(keys, InnerPrefix+"*")
	}
	return strings.Join(keys, ", ")
}

// coerce converts v to the declared kind, accepting native Go values
// and their string forms.
func coerce(k Kind, v any) (any, error) {
	switch k {
	case KindFloat:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, fmt.Errorf("cannot parse %q as float", x)
			}
			return f, nil
		}
	case KindInt:
		switch x := v.(type) {
		case int:
			return x, nil
		case int64:
			return int(x), nil
		case float64:
			if x != float64(int(x)) {
				return nil, fmt.Errorf("%v is not an integer", x)
			}
			return int(x), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(x), 10, strconv.IntSize)
			if err != nil {
				return nil, fmt.Errorf("cannot parse %q as int", x)
			}
			return int(n), nil
		}
	case KindBool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case string:
			b, err := strconv.ParseBool(strings.TrimSpace(x))
			if err != nil {
				return nil, fmt.Errorf("cannot parse %q as bool", x)
			}
			return b, nil
		}
	case KindString:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case KindTrace:
		if x, ok := v.([]trace.Request); ok {
			return x, nil
		}
		return nil, fmt.Errorf("a %T cannot be used as a future trace (pass []trace.Request)", v)
	}
	return nil, fmt.Errorf("want %s, got %T", k, v)
}
