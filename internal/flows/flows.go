// Package flows is a Globus-Flows-like automation engine: workflows are
// JSON state machines (a dialect of the Amazon States Language, as Globus
// Flows uses) whose Action states invoke registered action providers
// with parameters drawn from a JSON flow document. The dialect has two
// state types, the ones the paper's stage-3 flow needs: Action (call a
// provider, store its result at ResultPath, go to Next or End) and
// Succeed. Definitions with any other state type or field are rejected
// at parse time. Runs execute asynchronously with an event log; the
// engine keeps no reference to a run once it is handed back.
package flows

import (
	"encoding/json"
	"fmt"
	"strings"
)

// State types.
const (
	TypeAction  = "Action"
	TypeSucceed = "Succeed"
)

// Definition is a parsed flow.
type Definition struct {
	Comment string           `json:"Comment,omitempty"`
	StartAt string           `json:"StartAt"`
	States  map[string]State `json:"States"`
}

// State is one node of the machine.
type State struct {
	Type string `json:"Type"`

	// Action states.
	ActionProvider string         `json:"ActionProvider,omitempty"`
	Parameters     map[string]any `json:"Parameters,omitempty"`
	ResultPath     string         `json:"ResultPath,omitempty"`

	Next string `json:"Next,omitempty"`
	End  bool   `json:"End,omitempty"`
}

// ParseDefinition decodes and validates a flow definition.
func ParseDefinition(data []byte) (*Definition, error) {
	var def Definition
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("flows: parse: %w", err)
	}
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return &def, nil
}

// Validate checks structural invariants: the start state exists, every
// transition targets a defined state, every non-terminal state has a way
// forward, and terminal states exist.
func (d *Definition) Validate() error {
	if d.StartAt == "" {
		return fmt.Errorf("flows: missing StartAt")
	}
	if len(d.States) == 0 {
		return fmt.Errorf("flows: no states")
	}
	if _, ok := d.States[d.StartAt]; !ok {
		return fmt.Errorf("flows: StartAt %q is not a state", d.StartAt)
	}
	hasTerminal := false
	for name, st := range d.States {
		switch st.Type {
		case TypeAction:
			if st.ActionProvider == "" {
				return fmt.Errorf("flows: action state %q has no provider", name)
			}
			if !st.End && st.Next == "" {
				return fmt.Errorf("flows: action state %q has neither Next nor End", name)
			}
		case TypeSucceed:
			hasTerminal = true
		default:
			return fmt.Errorf("flows: state %q has unknown type %q", name, st.Type)
		}
		if st.End {
			hasTerminal = true
		}
		if _, ok := d.States[st.Next]; st.Next != "" && !ok {
			return fmt.Errorf("flows: state %q targets undefined state %q", name, st.Next)
		}
	}
	if !hasTerminal {
		return fmt.Errorf("flows: no terminal state (End or Succeed)")
	}
	return nil
}

// resolvePath walks "$.a.b.c" through nested maps.
func resolvePath(doc map[string]any, path string) (any, error) {
	if !strings.HasPrefix(path, "$.") && path != "$" {
		return nil, fmt.Errorf("flows: path %q must start with $.", path)
	}
	if path == "$" {
		return doc, nil
	}
	var cur any = doc
	for _, part := range strings.Split(path[2:], ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("flows: path %q traverses non-object", path)
		}
		cur, ok = m[part]
		if !ok {
			return nil, fmt.Errorf("flows: path %q not found", path)
		}
	}
	return cur, nil
}

// setPath stores a value at "$.a.b", creating intermediate objects.
func setPath(doc map[string]any, path string, value any) error {
	if !strings.HasPrefix(path, "$.") {
		return fmt.Errorf("flows: result path %q must start with $.", path)
	}
	parts := strings.Split(path[2:], ".")
	cur := doc
	for _, part := range parts[:len(parts)-1] {
		next, ok := cur[part].(map[string]any)
		if !ok {
			next = map[string]any{}
			cur[part] = next
		}
		cur = next
	}
	cur[parts[len(parts)-1]] = value
	return nil
}

// substituteParams deep-copies params, replacing any string value of the
// form "$.x.y" with the referenced document value.
func substituteParams(params map[string]any, doc map[string]any) (map[string]any, error) {
	out := map[string]any{}
	for k, v := range params {
		sub, err := substituteValue(v, doc)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %w", k, err)
		}
		out[k] = sub
	}
	return out, nil
}

func substituteValue(v any, doc map[string]any) (any, error) {
	switch t := v.(type) {
	case string:
		if strings.HasPrefix(t, "$.") || t == "$" {
			return resolvePath(doc, t)
		}
		return t, nil
	case map[string]any:
		return substituteParams(t, doc)
	case []any:
		out := make([]any, len(t))
		for i, item := range t {
			sub, err := substituteValue(item, doc)
			if err != nil {
				return nil, err
			}
			out[i] = sub
		}
		return out, nil
	default:
		return v, nil
	}
}
