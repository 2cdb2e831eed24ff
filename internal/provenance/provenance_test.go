package provenance

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// buildEOMLGraph records the lineage of one labeled tile file:
// granules -> preprocess -> tiles -> inference -> labeled -> shipment.
func buildEOMLGraph(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddEntity(Entity{ID: "mod02", Kind: "granule", URI: "laads://MOD021KM.A2022001.1230"}))
	must(s.AddEntity(Entity{ID: "mod03", Kind: "granule", URI: "laads://MOD03.A2022001.1230"}))
	must(s.AddEntity(Entity{ID: "mod06", Kind: "granule", URI: "laads://MOD06_L2.A2022001.1230"}))
	must(s.AddEntity(Entity{ID: "tiles", Kind: "tiles", URI: "file:///scratch/tiles.nc"}))
	must(s.AddEntity(Entity{ID: "model", Kind: "model", URI: "file:///models/ricc.hdf"}))
	must(s.AddEntity(Entity{ID: "labeled", Kind: "tiles", URI: "file:///outbox/tiles.nc"}))
	must(s.AddEntity(Entity{ID: "shipped", Kind: "tiles", URI: "orion:///aicca/tiles.nc"}))

	now := time.Now()
	must(s.AddActivity(Activity{
		ID: "pre-1", Name: "preprocess", Agent: "defiant",
		Started: now, Ended: now.Add(time.Second),
		Inputs: []string{"mod02", "mod03", "mod06"}, Outputs: []string{"tiles"},
	}))
	must(s.AddActivity(Activity{
		ID: "inf-1", Name: "inference", Agent: "defiant",
		Started: now.Add(time.Second), Ended: now.Add(2 * time.Second),
		Inputs: []string{"tiles", "model"}, Outputs: []string{"labeled"},
	}))
	must(s.AddActivity(Activity{
		ID: "ship-1", Name: "shipment", Agent: "globus",
		Started: now.Add(2 * time.Second), Ended: now.Add(3 * time.Second),
		Inputs: []string{"labeled"}, Outputs: []string{"shipped"},
	}))
	return s
}

func TestLineageWalksToSources(t *testing.T) {
	s := buildEOMLGraph(t)
	steps, err := s.Lineage("shipped")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Activity.Name != "shipment" || steps[1].Activity.Name != "inference" || steps[2].Activity.Name != "preprocess" {
		t.Fatalf("order: %v %v %v", steps[0].Activity.Name, steps[1].Activity.Name, steps[2].Activity.Name)
	}
	// The deepest step's inputs are the three granules.
	if len(steps[2].Inputs) != 3 {
		t.Fatalf("source inputs: %v", steps[2].Inputs)
	}
	// Source entity has no lineage.
	src, err := s.Lineage("mod02")
	if err != nil {
		t.Fatal(err)
	}
	if len(src) != 0 {
		t.Fatalf("granule lineage = %v", src)
	}
	if _, err := s.Lineage("ghost"); err == nil {
		t.Fatal("unknown entity accepted")
	}
}

func TestDerivedWalksForward(t *testing.T) {
	s := buildEOMLGraph(t)
	derived, err := s.Derived("mod02")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(derived))
	for i, e := range derived {
		ids[i] = e.ID
	}
	want := "labeled shipped tiles"
	if strings.Join(ids, " ") != want {
		t.Fatalf("derived = %v, want %s", ids, want)
	}
	leaf, err := s.Derived("shipped")
	if err != nil || len(leaf) != 0 {
		t.Fatalf("leaf derived = %v, %v", leaf, err)
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.AddEntity(Entity{Kind: "x"}); err == nil {
		t.Error("entity without id accepted")
	}
	if err := s.AddEntity(Entity{ID: "a", Kind: "granule"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEntity(Entity{ID: "a", Kind: "tiles"}); err == nil {
		t.Error("kind change accepted")
	}
	// Merge attrs on re-add.
	if err := s.AddEntity(Entity{ID: "a", Kind: "granule", Attrs: map[string]string{"day": "1"}}); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Entity("a")
	if e.Attrs["day"] != "1" {
		t.Errorf("attrs not merged: %v", e.Attrs)
	}

	if err := s.AddActivity(Activity{ID: "act", Name: "n", Inputs: []string{"ghost"}}); err == nil {
		t.Error("unknown input accepted")
	}
	if err := s.AddEntity(Entity{ID: "out", Kind: "tiles"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddActivity(Activity{ID: "act", Name: "n", Inputs: []string{"a"}, Outputs: []string{"out"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddActivity(Activity{ID: "act", Name: "n2"}); err == nil {
		t.Error("duplicate activity accepted")
	}
	if err := s.AddActivity(Activity{ID: "act2", Name: "n2", Outputs: []string{"out"}}); err == nil {
		t.Error("second producer accepted")
	}
	if _, err := s.Entity("nope"); err == nil {
		t.Error("unknown entity fetched")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s := buildEOMLGraph(t)
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := back.Lineage("shipped")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("imported lineage = %d steps", len(steps))
	}
	if len(back.Activities()) != 3 {
		t.Fatalf("imported activities = %d", len(back.Activities()))
	}
	if _, err := Import(strings.NewReader("{garbage")); err == nil {
		t.Fatal("garbage import accepted")
	}
}
