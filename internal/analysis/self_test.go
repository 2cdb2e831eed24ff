package analysis

import (
	"strings"
	"testing"
)

// TestRepoIsClean runs the full suite over this module the same way
// `eomlvet ./...` (make lint) does and asserts zero diagnostics: every
// invariant the suite mechanizes holds across the tree, and every
// intentional exemption carries a rationale. A failure here prints the
// exact findings a contributor would see from make lint.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module (stdlib from source); skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunModule(root, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		t.Fatalf("eomlvet found %d issue(s) in the repo:\n%s", len(diags), b.String())
	}
}

// loadModule type-checks this module the way RunModule does.
func loadModule(t *testing.T) (root string, loader *Loader, pkgs []*Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err = NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	return root, loader, pkgs
}

// TestRunModuleCoversAllPackages guards the loader's package discovery:
// the walk must find the module root package, cmd/, examples/, and every
// internal/ package, and must not descend into testdata.
func TestRunModuleCoversAllPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	_, _, pkgs := loadModule(t)
	paths := map[string]bool{}
	for _, p := range pkgs {
		paths[p.Path] = true
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("loader descended into testdata: %s", p.Path)
		}
	}
	for _, must := range []string{
		"github.com/eoml/eoml",
		"github.com/eoml/eoml/cmd/eomlvet",
		"github.com/eoml/eoml/internal/analysis",
		"github.com/eoml/eoml/internal/core",
		"github.com/eoml/eoml/internal/tensor",
		"github.com/eoml/eoml/examples/streaming",
	} {
		if !paths[must] {
			t.Errorf("loader missed package %s (got %d packages)", must, len(pkgs))
		}
	}
}

// TestLiveIgnoreDirectives pins the tree's exemptions by file. Each one
// is a place the design fights its own lint, so the set only changes on
// purpose: a new directive is a reviewed decision recorded here and in
// DESIGN.md §14, and a redesign that removes the need for one (PR 13's
// batch combiner retired the two in internal/aicca/batch.go, and the
// per-tile extract retired internal/tile's arena parking) deletes it
// from this table too.
func TestLiveIgnoreDirectives(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, loader, pkgs := loadModule(t)
	want := map[string]int{
		"internal/transfer/transfer.go": 1, // ctxflow: fire-and-forget Submit
	}
	got := map[string]int{}
	for _, pkg := range pkgs {
		for _, d := range collectIgnores(loader.Fset, pkg.Files) {
			got[strings.TrimPrefix(d.pos.Filename, root+"/")]++
		}
	}
	for file, n := range got {
		if want[file] != n {
			t.Errorf("%s carries %d //eomlvet:ignore directive(s), table says %d", file, n, want[file])
		}
	}
	for file, n := range want {
		if got[file] == 0 {
			t.Errorf("%s no longer carries its %d directive(s): drop it from this table and DESIGN.md §14", file, n)
		}
	}
}
