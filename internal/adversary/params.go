package adversary

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Params is the uniform typed parameter assignment behind the template
// adversaries (ChainAttack, DagAttack). Every named attack in the scenario
// registry is a preset of one template — a Params value — and a search
// harness explores the same space by varying individual fields. Each
// template reads only its own subset; the Schema registered with an attack
// says which names are settable and within which ranges.
type Params struct {
	// Withhold delays each produced block: the parents are chosen at grant
	// time but the append lands Withhold·Δ later (0 = publish
	// immediately). Shared by both templates.
	Withhold float64

	// Chain template (ChainAttack).
	ForkCount  int    // forking grants per ForkPeriod-grant cycle (0 = never fork)
	ForkPeriod int    // schedule cycle length in grants
	ForkLonely bool   // fork off-schedule whenever only one longest tip exists
	Target     string // fork target: TargetCorrect | TargetFirst
	Fanout     int    // chain: tips the extension schedule round-robins over; dag: parallel private chains

	// Dag template (DagAttack).
	Root        string // private segment root: RootPivot | RootGenesis
	Segment     int    // blocks per private segment before re-rooting (0 = root once, never again)
	StartWithin int    // stay silent until the ordering is within this many values of k (0 = always active)
}

// Fork-target and root choices of the templates.
const (
	TargetCorrect = "correct" // fork the first correct-authored longest tip
	TargetFirst   = "first"   // fork the first longest tip, whoever authored it
	RootPivot     = "pivot"   // re-root private segments at the fresh pivot tip
	RootGenesis   = "genesis" // root private segments at the genesis
)

// ParamKind is the type of one template parameter.
type ParamKind int

// Parameter kinds.
const (
	KindInt ParamKind = iota
	KindFloat
	KindBool
	KindEnum
)

func (k ParamKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "enum"
	}
}

// ParamValue is one number-or-string parameter value, mirroring the JSON
// representation scenario specs use (bool parameters accept 0/1 or
// "true"/"false").
type ParamValue struct {
	Num   float64
	Str   string
	IsStr bool
}

// Text renders the value the way a spec or sweep axis would write it.
func (v ParamValue) Text() string {
	if v.IsStr {
		return v.Str
	}
	return strconv.FormatFloat(v.Num, 'g', -1, 64)
}

// Helpers for building ParamValues in Go code.
func IntVal(n int) ParamValue       { return ParamValue{Num: float64(n)} }
func FloatVal(f float64) ParamValue { return ParamValue{Num: f} }
func StrVal(s string) ParamValue    { return ParamValue{Str: s, IsStr: true} }

func BoolVal(b bool) ParamValue {
	if b {
		return ParamValue{Num: 1}
	}
	return ParamValue{Num: 0}
}

// ParamSpec declares one settable template parameter: its name, type,
// range and documentation, plus the accessors binding it to the Params
// struct. The exported fields are what -list and the search harness read;
// apply/value keep Params a plain struct instead of a stringly map.
type ParamSpec struct {
	Name string
	Kind ParamKind
	Doc  string
	// Min/Max bound numeric parameters (inclusive); Enum lists the valid
	// strings of an enum parameter.
	Min, Max float64
	Enum     []string

	apply func(*Params, ParamValue)
	value func(Params) ParamValue
}

// Range renders the parameter's valid range for help output.
func (s ParamSpec) Range() string {
	switch s.Kind {
	case KindEnum:
		return strings.Join(s.Enum, "|")
	case KindBool:
		return "true|false"
	default:
		return fmt.Sprintf("%s..%s",
			strconv.FormatFloat(s.Min, 'g', -1, 64), strconv.FormatFloat(s.Max, 'g', -1, 64))
	}
}

// Value reads the parameter's current setting out of a Params value (for
// rendering preset defaults).
func (s ParamSpec) Value(p Params) ParamValue { return s.value(p) }

// validate checks one value against the spec's type and range.
func (s ParamSpec) validate(v ParamValue) error {
	switch s.Kind {
	case KindEnum:
		if !v.IsStr {
			return fmt.Errorf("parameter %q wants one of %s, got %v", s.Name, s.Range(), v.Num)
		}
		for _, e := range s.Enum {
			if v.Str == e {
				return nil
			}
		}
		return fmt.Errorf("parameter %q wants one of %s, got %q", s.Name, s.Range(), v.Str)
	case KindBool:
		if v.IsStr && v.Str != "true" && v.Str != "false" {
			return fmt.Errorf("parameter %q wants true/false or 0/1, got %q", s.Name, v.Str)
		}
		if !v.IsStr && v.Num != 0 && v.Num != 1 {
			return fmt.Errorf("parameter %q wants true/false or 0/1, got %v", s.Name, v.Num)
		}
		return nil
	case KindInt:
		if v.IsStr {
			return fmt.Errorf("parameter %q wants an integer in %s, got %q", s.Name, s.Range(), v.Str)
		}
		if v.Num != math.Trunc(v.Num) {
			return fmt.Errorf("parameter %q wants an integer in %s, got %v", s.Name, s.Range(), v.Num)
		}
		if v.Num < s.Min || v.Num > s.Max {
			return fmt.Errorf("parameter %q is out of range %s: %v", s.Name, s.Range(), v.Num)
		}
		return nil
	default: // KindFloat
		if v.IsStr {
			return fmt.Errorf("parameter %q wants a number in %s, got %q", s.Name, s.Range(), v.Str)
		}
		if v.Num < s.Min || v.Num > s.Max {
			return fmt.Errorf("parameter %q is out of range %s: %v", s.Name, s.Range(), v.Num)
		}
		return nil
	}
}

func boolOf(v ParamValue) bool {
	if v.IsStr {
		return v.Str == "true"
	}
	return v.Num != 0
}

// Schema is an attack's settable parameter set, in declaration order.
type Schema []ParamSpec

// Lookup finds one parameter by name.
func (s Schema) Lookup(name string) (ParamSpec, bool) {
	for _, p := range s {
		if p.Name == name {
			return p, true
		}
	}
	return ParamSpec{}, false
}

// Names enumerates the parameter names in declaration order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, p := range s {
		out[i] = p.Name
	}
	return out
}

// Set validates one named value and applies it to p.
func (s Schema) Set(p *Params, name string, v ParamValue) error {
	spec, ok := s.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown parameter %q (have %s)", name, strings.Join(s.Names(), ", "))
	}
	if err := spec.validate(v); err != nil {
		return err
	}
	spec.apply(p, v)
	return nil
}

// Resolve applies a set of named overrides to a preset, validating every
// name and value. Overrides apply in sorted name order, so error messages
// are deterministic regardless of map iteration.
func (s Schema) Resolve(preset Params, overrides map[string]ParamValue) (Params, error) {
	p := preset
	names := make([]string, 0, len(overrides))
	for name := range overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.Set(&p, name, overrides[name]); err != nil {
			return Params{}, err
		}
	}
	return p, nil
}

// ChainSchema is the parameter space of the ChainAttack template.
func ChainSchema() Schema {
	return Schema{
		{Name: "fork_count", Kind: KindInt, Min: 0, Max: 64,
			Doc:   "forking grants per fork_period-grant cycle (0 = always extend)",
			apply: func(p *Params, v ParamValue) { p.ForkCount = int(v.Num) },
			value: func(p Params) ParamValue { return IntVal(p.ForkCount) }},
		{Name: "fork_period", Kind: KindInt, Min: 1, Max: 64,
			Doc:   "fork/extend schedule cycle length in grants",
			apply: func(p *Params, v ParamValue) { p.ForkPeriod = int(v.Num) },
			value: func(p Params) ParamValue { return IntVal(p.ForkPeriod) }},
		{Name: "fork_lonely", Kind: KindBool,
			Doc:   "fork off-schedule whenever only one longest tip exists",
			apply: func(p *Params, v ParamValue) { p.ForkLonely = boolOf(v) },
			value: func(p Params) ParamValue { return BoolVal(p.ForkLonely) }},
		{Name: "target", Kind: KindEnum, Enum: []string{TargetCorrect, TargetFirst},
			Doc:   "fork target: first correct-authored longest tip, or first longest tip outright",
			apply: func(p *Params, v ParamValue) { p.Target = v.Str },
			value: func(p Params) ParamValue { return StrVal(p.Target) }},
		{Name: "fanout", Kind: KindInt, Min: 1, Max: 8,
			Doc:   "longest tips the extension schedule round-robins over (keeps forks alive)",
			apply: func(p *Params, v ParamValue) { p.Fanout = int(v.Num) },
			value: func(p Params) ParamValue { return IntVal(p.Fanout) }},
		{Name: "withhold", Kind: KindFloat, Min: 0, Max: 8,
			Doc:   "delay in Δ between the grant and the append landing (parents chosen at grant time)",
			apply: func(p *Params, v ParamValue) { p.Withhold = v.Num },
			value: func(p Params) ParamValue { return FloatVal(p.Withhold) }},
	}
}

// DagSchema is the parameter space of the DagAttack template.
func DagSchema() Schema {
	return Schema{
		{Name: "root", Kind: KindEnum, Enum: []string{RootPivot, RootGenesis},
			Doc:   "where private segments root: the fresh pivot tip, or the genesis",
			apply: func(p *Params, v ParamValue) { p.Root = v.Str },
			value: func(p Params) ParamValue { return StrVal(p.Root) }},
		{Name: "segment", Kind: KindInt, Min: 0, Max: 64,
			Doc:   "blocks per private segment before re-rooting (0 = root once, never re-root)",
			apply: func(p *Params, v ParamValue) { p.Segment = int(v.Num) },
			value: func(p Params) ParamValue { return IntVal(p.Segment) }},
		{Name: "start_within", Kind: KindInt, Min: 0, Max: 1024,
			Doc:   "stay silent until the pivot ordering is within this many values of k (0 = always active)",
			apply: func(p *Params, v ParamValue) { p.StartWithin = int(v.Num) },
			value: func(p Params) ParamValue { return IntVal(p.StartWithin) }},
		{Name: "fanout", Kind: KindInt, Min: 1, Max: 8,
			Doc:   "parallel private chains extended round-robin",
			apply: func(p *Params, v ParamValue) { p.Fanout = int(v.Num) },
			value: func(p Params) ParamValue { return IntVal(p.Fanout) }},
		{Name: "withhold", Kind: KindFloat, Min: 0, Max: 8,
			Doc:   "delay in Δ between the grant and the append landing (parents chosen at grant time)",
			apply: func(p *Params, v ParamValue) { p.Withhold = v.Num },
			value: func(p Params) ParamValue { return FloatVal(p.Withhold) }},
	}
}
