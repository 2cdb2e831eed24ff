// Package provenance records workflow lineage — the reproducibility
// layer the paper's §V.A calls for: "integrate advanced provenance
// tracking and telemetry tools for real-time workflow insights".
//
// The model follows W3C PROV's core triangle, trimmed to what the EO-ML
// workflow needs:
//
//   - an Entity is a data artifact (a granule, a tile NetCDF, a model
//     checkpoint, a shipped product), identified by a stable ID;
//   - an Activity is a processing step (download, preprocess, inference,
//     shipment) consuming and producing entities;
//   - lineage queries walk backwards from any entity to the activities
//     and source entities it was derived from.
package provenance

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Entity is one data artifact.
type Entity struct {
	ID    string            `json:"id"`
	Kind  string            `json:"kind"` // "granule", "tiles", "model", ...
	URI   string            `json:"uri"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Activity is one processing step.
type Activity struct {
	ID      string    `json:"id"`
	Name    string    `json:"name"` // component name, e.g. "preprocess"
	Agent   string    `json:"agent"`
	Started time.Time `json:"started"`
	Ended   time.Time `json:"ended"`
	Inputs  []string  `json:"inputs"`  // entity IDs
	Outputs []string  `json:"outputs"` // entity IDs
}

// Store is an in-memory provenance graph with JSON import/export.
type Store struct {
	mu         sync.RWMutex
	entities   map[string]Entity
	activities map[string]Activity
	producer   map[string]string // entity ID -> activity ID that produced it
	order      []string          // activity IDs in record order
}

// NewStore returns an empty graph.
func NewStore() *Store {
	return &Store{
		entities:   map[string]Entity{},
		activities: map[string]Activity{},
		producer:   map[string]string{},
	}
}

// AddEntity records an artifact. Re-adding the same ID must carry the
// same kind; attrs are merged.
func (s *Store) AddEntity(e Entity) error {
	if e.ID == "" || e.Kind == "" {
		return fmt.Errorf("provenance: entity needs id and kind")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entities[e.ID]; ok {
		if old.Kind != e.Kind {
			return fmt.Errorf("provenance: entity %q re-registered as %q (was %q)", e.ID, e.Kind, old.Kind)
		}
		for k, v := range e.Attrs {
			if old.Attrs == nil {
				old.Attrs = map[string]string{}
			}
			old.Attrs[k] = v
		}
		if e.URI != "" {
			old.URI = e.URI
		}
		s.entities[e.ID] = old
		return nil
	}
	s.entities[e.ID] = e
	return nil
}

// AddActivity records a step. Every referenced entity must exist, and an
// output entity may have only one producer.
func (s *Store) AddActivity(a Activity) error {
	if a.ID == "" || a.Name == "" {
		return fmt.Errorf("provenance: activity needs id and name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.activities[a.ID]; dup {
		return fmt.Errorf("provenance: duplicate activity %q", a.ID)
	}
	for _, id := range append(append([]string{}, a.Inputs...), a.Outputs...) {
		if _, ok := s.entities[id]; !ok {
			return fmt.Errorf("provenance: activity %q references unknown entity %q", a.ID, id)
		}
	}
	for _, out := range a.Outputs {
		if prev, taken := s.producer[out]; taken {
			return fmt.Errorf("provenance: entity %q already produced by %q", out, prev)
		}
	}
	s.activities[a.ID] = a
	s.order = append(s.order, a.ID)
	for _, out := range a.Outputs {
		s.producer[out] = a.ID
	}
	return nil
}

// Entity fetches an artifact.
func (s *Store) Entity(id string) (Entity, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entities[id]
	if !ok {
		return Entity{}, fmt.Errorf("provenance: no entity %q", id)
	}
	return e, nil
}

// Activities returns all activities in record order.
func (s *Store) Activities() []Activity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Activity, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.activities[id])
	}
	return out
}

// Step is one hop of a lineage trace.
type Step struct {
	Activity Activity
	Inputs   []Entity
}

// Lineage walks backwards from an entity, returning the chain of
// activities (most recent first) that led to it. Shared ancestors are
// reported once.
func (s *Store) Lineage(entityID string) ([]Step, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.entities[entityID]; !ok {
		return nil, fmt.Errorf("provenance: no entity %q", entityID)
	}
	var steps []Step
	seenActivity := map[string]bool{}
	frontier := []string{entityID}
	for len(frontier) > 0 {
		var next []string
		for _, eid := range frontier {
			actID, produced := s.producer[eid]
			if !produced || seenActivity[actID] {
				continue
			}
			seenActivity[actID] = true
			act := s.activities[actID]
			step := Step{Activity: act}
			for _, in := range act.Inputs {
				step.Inputs = append(step.Inputs, s.entities[in])
				next = append(next, in)
			}
			steps = append(steps, step)
		}
		frontier = next
	}
	return steps, nil
}

// Derived returns every entity transitively derived from the given one
// (forward lineage), sorted by ID.
func (s *Store) Derived(entityID string) ([]Entity, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.entities[entityID]; !ok {
		return nil, fmt.Errorf("provenance: no entity %q", entityID)
	}
	consumers := map[string][]string{} // entity -> activities consuming it
	for id, act := range s.activities {
		for _, in := range act.Inputs {
			consumers[in] = append(consumers[in], id)
		}
	}
	seen := map[string]bool{}
	var out []Entity
	frontier := []string{entityID}
	for len(frontier) > 0 {
		var next []string
		for _, eid := range frontier {
			for _, actID := range consumers[eid] {
				for _, produced := range s.activities[actID].Outputs {
					if !seen[produced] {
						seen[produced] = true
						out = append(out, s.entities[produced])
						next = append(next, produced)
					}
				}
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// document is the JSON export shape.
type document struct {
	Entities   []Entity   `json:"entities"`
	Activities []Activity `json:"activities"`
}

// Export writes the graph as JSON.
func (s *Store) Export(w io.Writer) error {
	s.mu.RLock()
	doc := document{}
	ids := make([]string, 0, len(s.entities))
	for id := range s.entities {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		doc.Entities = append(doc.Entities, s.entities[id])
	}
	for _, id := range s.order {
		doc.Activities = append(doc.Activities, s.activities[id])
	}
	s.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Import loads a JSON export into an empty store.
func Import(r io.Reader) (*Store, error) {
	var doc document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("provenance: import: %w", err)
	}
	s := NewStore()
	for _, e := range doc.Entities {
		if err := s.AddEntity(e); err != nil {
			return nil, err
		}
	}
	for _, a := range doc.Activities {
		if err := s.AddActivity(a); err != nil {
			return nil, err
		}
	}
	return s, nil
}
