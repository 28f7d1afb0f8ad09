package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expectation from a `// want `+"`regex`"+` comment in a
// testdata file. The regex is matched against "analyzer: message".
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runTestdata loads one testdata package, runs the full analyzer suite
// over it (mod adjusts the Config for scope-gated analyzers), and diffs
// the findings against the file's want comments in both directions:
// every want must be hit, every finding must be wanted.
func runTestdata(t *testing.T, name string, mod func(*Config)) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(dir, name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	cfg := Config{Module: name, ClockScope: []string{"lint-testdata/none"}, LockScope: []string{"lint-testdata/none"}}
	if mod != nil {
		mod(&cfg)
	}
	diags := Run([]*Package{pkg}, cfg)
	diffWants(t, collectWants(t, pkg), diags)
}

// diffWants cross-checks findings against want expectations.
func diffWants(t *testing.T, wants []*want, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		text := d.Analyzer + ": " + d.Message
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, text)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing finding at %s:%d matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}

// collectWants extracts the want comments from a loaded package. The
// expected form is: // want `regex` (one or more backtick-quoted
// regexes per comment).
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				parts := strings.Split(rest, "`")
				if len(parts) < 3 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for i := 1; i+1 < len(parts); i += 2 {
					re, err := regexp.Compile(parts[i])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("testdata package has no want comments")
	}
	return wants
}

func TestClockdetAnalyzer(t *testing.T)  { runTestdata(t, "clockdet", clockScoped) }
func TestAtomicmixAnalyzer(t *testing.T) { runTestdata(t, "atomicmix", nil) }

func TestLockorderAnalyzer(t *testing.T) { runTestdata(t, "lockorder", lockScoped) }

func clockScoped(cfg *Config) { cfg.ClockScope = []string{cfg.Module} }
func lockScoped(cfg *Config)  { cfg.LockScope = []string{cfg.Module} }

// TestStaticallocAnalyzer feeds real compiler escape output to the
// analyzer: the testdata directory is its own module, so the build is
// hermetic, and the //cwx:hotpath escape must be the only finding.
func TestStaticallocAnalyzer(t *testing.T) {
	dir := filepath.Join("testdata", "src", "staticalloc")
	esc, err := GoBuildEscapes(dir, ".")
	if err != nil {
		t.Fatalf("GoBuildEscapes: %v", err)
	}
	if len(esc) == 0 {
		t.Fatal("compiler reported no escapes in testdata; the fixture lost its escape")
	}
	pkg, err := LoadDir(dir, "staticalloc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Module: "staticalloc", ClockScope: []string{"lint-testdata/none"}, LockScope: []string{"lint-testdata/none"}, Escapes: esc}
	diffWants(t, collectWants(t, pkg), Run([]*Package{pkg}, cfg))
}

// TestLockGraphDOT sanity-checks the -lockgraph artifact: both classes
// and the inversion edge of the seeded testdata must render, with the
// inversion painted red.
func TestLockGraphDOT(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "lockorder"), "lockorder")
	if err != nil {
		t.Fatal(err)
	}
	dot := LockGraphDOT([]*Package{pkg}, Config{Module: "lockorder", LockScope: []string{"lockorder"}})
	for _, frag := range []string{
		"digraph cwxlockorder",
		`"alpha" [label="alpha\nlockorder.A.mu\nlevel 10"]`,
		`"alpha" -> "beta"`,
		`"beta" -> "alpha"`,
		"color=red",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("lock graph missing %q:\n%s", frag, dot)
		}
	}
}

// TestLockGraphDOTReproducible: the whole module's lock graph, whose
// edges are found in map order, renders to the same bytes every time.
func TestLockGraphDOTReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, module, err := lintLoad(root)
	if err != nil {
		t.Fatal(err)
	}
	first := LockGraphDOT(pkgs, Config{Module: module})
	if !strings.Contains(first, " -> ") {
		t.Fatalf("lock graph has no edges:\n%s", first)
	}
	for i := 0; i < 4; i++ {
		if again := LockGraphDOT(pkgs, Config{Module: module}); again != first {
			t.Fatalf("lock graph differs between two renderings:\n%s\nthen:\n%s", first, again)
		}
	}
}

// TestDiagnosticJSON pins the -json line format: root-relative file,
// position, analyzer and message.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{Analyzer: "atomicmix", Message: "bare read"}
	d.Pos.Filename = filepath.Join("/repo", "internal", "x", "x.go")
	d.Pos.Line, d.Pos.Column = 7, 3
	got := d.JSON("/repo")
	want := `{"file":"internal/x/x.go","line":7,"col":3,"analyzer":"atomicmix","message":"bare read"}`
	if got != want {
		t.Errorf("JSON = %s\nwant   %s", got, want)
	}
}

// TestClockScopeDisabled proves clockdet is scope-gated: the same wall
// clock-ridden testdata is silent when its package is out of scope.
func TestClockScopeDisabled(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "clockdet"), "clockdet")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, Config{Module: "clockdet", ClockScope: []string{"lint-testdata/none"}})
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced findings: %v", diags)
	}
}

// TestRepoClean runs the full suite over this repository exactly as
// `make lint` does: the tree must be free of findings, every accepted
// exception an inline //cwx:allow.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, module, err := lintLoad(root)
	if err != nil {
		t.Fatal(err)
	}
	esc, err := GoBuildEscapes(root, "./...")
	if err != nil {
		t.Fatalf("GoBuildEscapes: %v", err)
	}
	for _, d := range Run(pkgs, Config{Module: module, Escapes: esc}) {
		t.Errorf("finding: %s", d)
	}
	if len(pkgs) < 10 {
		t.Errorf("loaded only %d packages; loader is missing part of the module", len(pkgs))
	}
}

// lintLoad is Load with a friendlier test failure message.
func lintLoad(root string) ([]*Package, string, error) {
	pkgs, module, err := Load(root)
	if err != nil {
		return nil, "", fmt.Errorf("Load(%s): %w", root, err)
	}
	return pkgs, module, nil
}
