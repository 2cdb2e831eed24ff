package analysis

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader amortizes stdlib type-checking across the fixture tests;
// the loader caches packages, so context/time/sync/os check once.
var (
	loaderOnce sync.Once
	loaderErr  error
	loader     *Loader
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// want is one `// want "regex"` expectation in a fixture file.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// collectWants parses the `// want "..."` expectations from the loaded
// fixture files. Several quoted patterns may follow one want marker.
func collectWants(t *testing.T, l *Loader, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				for _, q := range strings.Split(strings.TrimSpace(m[1]), `" "`) {
					q = strings.Trim(q, `"`)
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

// runAnyAnalyzer dispatches on analyzer kind: per-package analyzers run
// directly over the fixture package, interprocedural ones get a call
// graph built over it (a fixture is a one-package module).
func runAnyAnalyzer(a *Analyzer, l *Loader, pkg *Package) []Diagnostic {
	if a.RunModule != nil {
		return RunModuleAnalyzer(a, l.Fset, []*Package{pkg})
	}
	return RunAnalyzer(a, l.Fset, pkg)
}

// runFixture loads testdata/src/<name> and checks the analyzer's output
// (after ignore-directive filtering) against the want expectations.
func runFixture(t *testing.T, a *Analyzer) {
	l := fixtureLoader(t)
	dir := filepath.Join("testdata", "src", a.Name)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(abs, a.Name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	known := map[string]bool{}
	for _, da := range DefaultAnalyzers() {
		known[da.Name] = true
	}
	diags := applyIgnores(runAnyAnalyzer(a, l, pkg), collectIgnores(l.Fset, pkg.Files), known)
	wants := collectWants(t, l, pkg.Files)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want expectations", dir)
	}

	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestCtxSendFixture(t *testing.T)       { runFixture(t, CtxSend) }
func TestSleepPollFixture(t *testing.T)     { runFixture(t, SleepPoll) }
func TestLoneGoroutineFixture(t *testing.T) { runFixture(t, LoneGoroutine) }
func TestCloseCheckFixture(t *testing.T)    { runFixture(t, CloseCheck) }
func TestArenaPairFixture(t *testing.T)     { runFixture(t, ArenaPair) }
func TestSpanPairFixture(t *testing.T)      { runFixture(t, SpanPair) }
func TestPkgDocFixture(t *testing.T)        { runFixture(t, PkgDoc) }
func TestLockGuardFixture(t *testing.T)     { runFixture(t, LockGuard) }
func TestCtxFlowFixture(t *testing.T)       { runFixture(t, CtxFlow) }
func TestLockSleepFixture(t *testing.T)     { runFixture(t, LockSleep) }

// TestAnalyzerMetadata keeps the suite's self-description coherent.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range DefaultAnalyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Fatalf("analyzer %+v is missing metadata", a)
		}
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Fatalf("analyzer %s must set exactly one of Run and RunModule", a.Name)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
		if a.Name == "ignore" {
			t.Fatal("\"ignore\" is reserved for directive diagnostics")
		}
	}
}

// TestScoping pins each analyzer's path scope: ctxsend is orchestration
// code only, sleeppoll and lonegoroutine are library (internal/) code,
// the resource-pairing checks are module-wide.
func TestScoping(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		pkgPath  string
		applies  bool
	}{
		{CtxSend, "github.com/eoml/eoml/internal/core", true},
		{CtxSend, "github.com/eoml/eoml/internal/watch", true},
		{CtxSend, "github.com/eoml/eoml/internal/laads", false},
		{CtxSend, "github.com/eoml/eoml/cmd/eoml", false},
		{SleepPoll, "github.com/eoml/eoml/internal/laads", true},
		{SleepPoll, "github.com/eoml/eoml/cmd/eoml", false},
		{SleepPoll, "github.com/eoml/eoml/examples/streaming", false},
		{LoneGoroutine, "github.com/eoml/eoml/internal/transfer", true},
		{LoneGoroutine, "github.com/eoml/eoml/examples/streaming", false},
		{LockGuard, "github.com/eoml/eoml/internal/pipereg", true},
		{LockGuard, "github.com/eoml/eoml/cmd/eoml", false},
		{CtxFlow, "github.com/eoml/eoml/internal/laads", true},
		{CtxFlow, "github.com/eoml/eoml/examples/streaming", false},
		{LockSleep, "github.com/eoml/eoml/internal/compute", true},
		{LockSleep, "github.com/eoml/eoml/cmd/eomlvet", false},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.pkgPath); got != c.applies {
			t.Errorf("%s.AppliesTo(%s) = %v, want %v", c.analyzer.Name, c.pkgPath, got, c.applies)
		}
	}
	for _, a := range []*Analyzer{CloseCheck, ArenaPair, SpanPair, PkgDoc} {
		if a.AppliesTo != nil {
			t.Errorf("%s should be module-wide (nil AppliesTo)", a.Name)
		}
	}
}

// TestSeededViolationFailsGate demonstrates the acceptance criterion:
// the gate exits non-zero on a violation. Each fixture package seeds
// real violations, so each analyzer must produce a non-empty finding
// list there before ignore filtering.
func TestSeededViolationFailsGate(t *testing.T) {
	l := fixtureLoader(t)
	for _, a := range DefaultAnalyzers() {
		abs, err := filepath.Abs(filepath.Join("testdata", "src", a.Name))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := l.LoadDir(abs, a.Name)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if diags := runAnyAnalyzer(a, l, pkg); len(diags) == 0 {
			t.Errorf("%s found nothing in its seeded fixture; the gate would pass a violation", a.Name)
		}
	}
}
