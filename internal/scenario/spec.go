package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Spec declares one scenario: a protocol, an adversary, the model
// parameters, an optional sweep over any of them, and the trials/metrics
// block that turns runs into numbers. The zero value of every optional
// field means "the default", so specs stay terse, and the whole struct
// round-trips through JSON — examples/scenarios/*.json files are Specs.
type Spec struct {
	// Name labels the scenario in tables and JSON output.
	Name string `json:"name,omitempty"`
	// Doc is a free-form description (carried through JSON, never parsed).
	Doc string `json:"doc,omitempty"`

	Protocol Protocol `json:"protocol"`
	N        int      `json:"n"`
	T        int      `json:"t,omitempty"`       // Byzantine nodes (the last T ids)
	Crashes  int      `json:"crashes,omitempty"` // crash-faulty correct nodes

	Lambda float64   `json:"lambda,omitempty"` // token rate per node per Δ (randomized protocols)
	Rates  []float64 `json:"rates,omitempty"`  // per-node rates ("hashing power"); overrides Lambda
	Delta  float64   `json:"delta,omitempty"`  // synchrony bound; 0 means 1.0
	K      int       `json:"k,omitempty"`      // decision threshold (randomized protocols)
	Rounds int       `json:"rounds,omitempty"` // sync protocol; 0 means T+1

	TieBreak TieBreak `json:"tiebreak,omitempty"` // chain protocol; "" means random
	Pivot    Pivot    `json:"pivot,omitempty"`    // dag protocol; "" means ghost
	Confirm  int      `json:"confirm,omitempty"`  // chain/dag confirmation depth

	Attack Attack `json:"attack,omitempty"` // "" means silent
	// AttackParams overrides individual template parameters of a
	// parameterized attack (see the attack's Schema, printed by amrun
	// -list). Unknown names and out-of-range values are rejected at Bind.
	AttackParams map[string]Value `json:"attack_params,omitempty"`

	// Inputs: "same" (all +1, default), "same:-1", "split:<ones>", or
	// "random".
	Inputs string `json:"inputs,omitempty"`

	Access     Access `json:"access,omitempty"`      // "" means poisson
	FreshReads bool   `json:"fresh_reads,omitempty"` // ablation: honest nodes read at grant time

	// Topology selects the network graph the appends propagate over; ""
	// (or "complete") keeps the Δ-bounded oracle path. The remaining
	// fields shape the graph and its per-link delays; they are inert on
	// the complete topology, so sweeps may mix it with sparse graphs.
	Topology       Topology           `json:"topology,omitempty"`
	TopologyParams map[string]float64 `json:"topology_params,omitempty"` // generator shape (k, cols, beta, m)
	TopologyTable  [][]float64        `json:"topology_table,omitempty"`  // explicit [from, to, latency-in-Δ] rows (topology "table")
	LinkDelay      float64            `json:"link_delay,omitempty"`      // base per-link latency in Δ; 0 means 0.5
	LinkJitter     float64            `json:"link_jitter,omitempty"`     // delay spread fraction in [0,1); 0 means the model default
	DelayDist      string             `json:"delay_dist,omitempty"`      // per-link delay distribution; "" means fixed

	StallAtSize   int     `json:"stall_at,omitempty"`        // temporal-asynchrony blackout trigger size
	StallFor      float64 `json:"stall_for,omitempty"`       // blackout duration in Δ; 0 means 8
	AsyncDelayMax float64 `json:"async_delay_max,omitempty"` // honest token-to-append delay bound in Δ (Theorem 5.1)

	// Window > 0 runs the memory in windowed (bounded-live) mode: every Δ
	// the harness retires messages no party can reach any more, keeping at
	// least Window live. Decisions are unchanged. Chain/dag protocols with
	// the silent or flip attack only; must cover the decision lookback
	// k+confirm; incompatible with topology/async/stall and Checkpoint.
	Window int `json:"window,omitempty"`
	// Checkpoint reuses trial prefixes across a confirm sweep: the lowest
	// confirmation point of each sweep group snapshots every trial at its
	// first decision, and deeper-confirmation points fast-forward from the
	// snapshot instead of re-simulating the shared prefix. Results are
	// byte-identical with or without it. Chain/dag with silent/flip only.
	Checkpoint bool `json:"checkpoint,omitempty"`

	Seed   uint64 `json:"seed,omitempty"`   // base seed; trial i uses Seed+i
	Trials int    `json:"trials,omitempty"` // trials per sweep point; 0 means 1

	// Metrics names the metric extractors evaluated per point (see the
	// Metrics registry); empty means ok/validity/agreement/termination.
	Metrics []string `json:"metrics,omitempty"`

	// Sweep declares the parameter axes: the cartesian product of the axis
	// values is run, first axis outermost. An empty sweep is one point.
	Sweep []Axis `json:"sweep,omitempty"`
}

// Axis is one sweep dimension: a parameter name and the values it takes.
type Axis struct {
	Name   string  `json:"axis"`
	Values []Value `json:"values"`
}

// Value is one sweep value: a number or a string, matching the JSON
// representation ("values": [0.05, 0.25] vs ["ghost", "longest"]).
type Value struct {
	Num   float64
	Str   string
	IsStr bool
}

// MarshalJSON emits the number or the string.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.IsStr {
		return json.Marshal(v.Str)
	}
	return json.Marshal(v.Num)
}

// UnmarshalJSON accepts a JSON number or string.
func (v *Value) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if strings.HasPrefix(s, `"`) {
		v.IsStr = true
		v.Num = 0
		return json.Unmarshal(b, &v.Str)
	}
	v.IsStr = false
	v.Str = ""
	return json.Unmarshal(b, &v.Num)
}

// Text is the display form of the value.
func (v Value) Text() string {
	if v.IsStr {
		return v.Str
	}
	return strconv.FormatFloat(v.Num, 'g', -1, 64)
}

// ParseValue turns a CLI token into a Value: numbers become numeric,
// anything else stays a string.
func ParseValue(tok string) Value {
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return Value{Num: f}
	}
	return Value{Str: tok, IsStr: true}
}

// ParseAttackParams parses a CLI "name=value,name=value" list into the
// spec's attack_params map. Values follow ParseValue (numbers become
// numeric); names and ranges are validated at Bind against the bound
// attack's schema.
func ParseAttackParams(s string) (map[string]Value, error) {
	if s == "" {
		return nil, nil
	}
	params := map[string]Value{}
	for _, tok := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(tok), "=")
		if !ok || name == "" || val == "" {
			return nil, fmt.Errorf("scenario: attack parameter %q is not of the form name=value", tok)
		}
		params[name] = ParseValue(val)
	}
	return params, nil
}

// ParseAxis parses a CLI sweep flag of the form "axis=v1,v2,...".
func ParseAxis(s string) (Axis, error) {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || name == "" || vals == "" {
		return Axis{}, fmt.Errorf("scenario: sweep %q is not of the form axis=v1,v2,...", s)
	}
	ax := Axis{Name: strings.TrimSpace(name)}
	for _, tok := range strings.Split(vals, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return Axis{}, fmt.Errorf("scenario: sweep %q has an empty value", s)
		}
		ax.Values = append(ax.Values, ParseValue(tok))
	}
	if topoParamAxis(ax.Name) != "" || attackParamAxis(ax.Name) != "" {
		return ax, nil
	}
	for _, known := range SweepAxes() {
		if ax.Name == known {
			return ax, nil
		}
	}
	return Axis{}, fmt.Errorf("scenario: unknown sweep axis %q (have %s)", ax.Name, strings.Join(SweepAxes(), ", "))
}

// SweepAxes lists the parameter names a sweep may vary. In addition to
// these, "topo:<param>" sweeps one topology generator parameter (e.g.
// "topo:beta" for the small-world rewiring probability) and
// "attack:<param>" sweeps one attack template parameter (e.g.
// "attack:fork_period" for the chain templates' fork schedule).
func SweepAxes() []string {
	return []string{
		"n", "t", "crashes", "lambda", "delta", "k", "rounds", "confirm",
		"stall_at", "stall_for", "async_delay_max", "window", "seed",
		"protocol", "tiebreak", "pivot", "attack", "inputs", "access",
		"fresh_reads", "topology", "link_delay", "link_jitter", "delay_dist",
		"topo:<param>", "attack:<param>",
	}
}

// topoParamAxis returns the topology parameter name a "topo:<param>" axis
// addresses, or "" when the axis is not of that form.
func topoParamAxis(axis string) string {
	if p, ok := strings.CutPrefix(axis, "topo:"); ok && p != "" {
		return p
	}
	return ""
}

// attackParamAxis returns the attack template parameter an
// "attack:<param>" axis addresses, or "" when the axis is not of that
// form. Name and value validation happen at Bind, against the bound
// attack's schema.
func attackParamAxis(axis string) string {
	if p, ok := strings.CutPrefix(axis, "attack:"); ok && p != "" {
		return p
	}
	return ""
}

// with returns the spec with one axis set to one value.
func (s Spec) with(axis string, v Value) (Spec, error) {
	setInt := func(dst *int) error {
		if v.IsStr {
			return fmt.Errorf("scenario: axis %q needs numeric values, got %q", axis, v.Str)
		}
		n := int(v.Num)
		if float64(n) != v.Num {
			return fmt.Errorf("scenario: axis %q needs integer values, got %v", axis, v.Num)
		}
		*dst = n
		return nil
	}
	setFloat := func(dst *float64) error {
		if v.IsStr {
			return fmt.Errorf("scenario: axis %q needs numeric values, got %q", axis, v.Str)
		}
		*dst = v.Num
		return nil
	}
	setStr := func(set func(string)) error {
		if !v.IsStr {
			return fmt.Errorf("scenario: axis %q needs string values, got %v", axis, v.Num)
		}
		set(v.Str)
		return nil
	}
	var err error
	if param := attackParamAxis(axis); param != "" {
		// Copy-on-write, like topo:<param>: sweep points must not alias
		// one params map.
		params := make(map[string]Value, len(s.AttackParams)+1)
		for k, pv := range s.AttackParams {
			params[k] = pv
		}
		params[param] = v
		s.AttackParams = params
		return s, nil
	}
	if param := topoParamAxis(axis); param != "" {
		if v.IsStr {
			return s, fmt.Errorf("scenario: axis %q needs numeric values, got %q", axis, v.Str)
		}
		// Copy-on-write: sweep points must not alias one params map.
		params := make(map[string]float64, len(s.TopologyParams)+1)
		for k, pv := range s.TopologyParams {
			params[k] = pv
		}
		params[param] = v.Num
		s.TopologyParams = params
		return s, nil
	}
	switch axis {
	case "n":
		err = setInt(&s.N)
	case "t":
		err = setInt(&s.T)
	case "crashes":
		err = setInt(&s.Crashes)
	case "k":
		err = setInt(&s.K)
	case "rounds":
		err = setInt(&s.Rounds)
	case "confirm":
		err = setInt(&s.Confirm)
	case "stall_at":
		err = setInt(&s.StallAtSize)
	case "window":
		err = setInt(&s.Window)
	case "lambda":
		err = setFloat(&s.Lambda)
	case "delta":
		err = setFloat(&s.Delta)
	case "stall_for":
		err = setFloat(&s.StallFor)
	case "link_delay":
		err = setFloat(&s.LinkDelay)
	case "link_jitter":
		err = setFloat(&s.LinkJitter)
	case "async_delay_max":
		err = setFloat(&s.AsyncDelayMax)
	case "seed":
		var n int
		if err = setInt(&n); err == nil {
			s.Seed = uint64(n)
		}
	case "protocol":
		err = setStr(func(x string) { s.Protocol = Protocol(x) })
	case "tiebreak":
		err = setStr(func(x string) { s.TieBreak = TieBreak(x) })
	case "pivot":
		err = setStr(func(x string) { s.Pivot = Pivot(x) })
	case "attack":
		err = setStr(func(x string) { s.Attack = Attack(x) })
	case "inputs":
		err = setStr(func(x string) { s.Inputs = x })
	case "access":
		err = setStr(func(x string) { s.Access = Access(x) })
	case "topology":
		err = setStr(func(x string) { s.Topology = Topology(x) })
	case "delay_dist":
		err = setStr(func(x string) { s.DelayDist = x })
	case "fresh_reads":
		switch {
		case v.IsStr && v.Str == "true":
			s.FreshReads = true
		case v.IsStr && v.Str == "false":
			s.FreshReads = false
		case !v.IsStr:
			s.FreshReads = v.Num != 0
		default:
			err = fmt.Errorf("scenario: axis fresh_reads needs true/false or 0/1, got %q", v.Str)
		}
	default:
		err = fmt.Errorf("scenario: unknown sweep axis %q (have %s)", axis, strings.Join(SweepAxes(), ", "))
	}
	return s, err
}

// Point is one concrete spec of a sweep, with its coordinates along the
// declared axes (empty for an unswept spec).
type Point struct {
	Spec   Spec
	Coords []Value // aligned with the root spec's Sweep axes
}

// Expand materializes the sweep as concrete points: the cartesian product
// of the axis values, first axis outermost, each point's Sweep cleared.
func (s Spec) Expand() ([]Point, error) {
	base := s
	base.Sweep = nil
	points := []Point{{Spec: base}}
	for i, ax := range s.Sweep {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: sweep axis %q has no values", ax.Name)
		}
		// A repeated axis would silently last-write-win: only the innermost
		// occurrence would shape the point, while the outer one still
		// multiplied the sweep and mislabeled the coordinates.
		for _, prev := range s.Sweep[:i] {
			if prev.Name == ax.Name {
				return nil, fmt.Errorf("scenario: sweep axis %q declared twice", ax.Name)
			}
		}
		next := make([]Point, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				sp, err := p.Spec.with(ax.Name, v)
				if err != nil {
					return nil, err
				}
				coords := append(append([]Value(nil), p.Coords...), v)
				next = append(next, Point{Spec: sp, Coords: coords})
			}
		}
		points = next
	}
	return points, nil
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so example
// files cannot silently rot.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec: %w", err)
	}
	return s, nil
}
