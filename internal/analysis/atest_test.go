package analysis_test

// This file is the analyzer tests' fixture harness: it runs evovet
// analyzers over fixture packages and checks their findings against
// // want comments, in the spirit of
// golang.org/x/tools/go/analysis/analysistest (which the module cannot
// depend on).
//
// Fixtures live under testdata/<suite>/src/<import path>/. A fixture
// tree is self-contained: packages may import each other by their full
// path — including stubs that shadow real module paths such as
// evotree/internal/bb, which is how analyzer type matching (done by
// import-path string) is exercised without dragging the real engine into
// every fixture — and may import the standard library, which is resolved
// from compiler export data.
//
// Expectations are written on the line the finding lands on:
//
//	p.Emit(ev) // want `unguarded`
//
// Each backquoted or double-quoted string is a regexp that must match
// the message of exactly one finding reported on that line; findings
// with no matching want, and wants with no matching finding, fail the
// test.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"evotree/internal/analysis"
)

// runFixtures analyzes every fixture package under testdata/<suite>/src
// with the given analyzers and compares findings against want comments.
func runFixtures(t *testing.T, suite string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	root := filepath.Join("testdata", suite, "src")
	fixtures, err := loadFixtures(root)
	if err != nil {
		t.Fatalf("loading fixtures under %s: %v", root, err)
	}
	if len(fixtures) == 0 {
		t.Fatalf("no fixture packages under %s", root)
	}
	for _, pkg := range fixtures {
		diags, err := analysis.Check(pkg, analyzers)
		if err != nil {
			t.Fatalf("checking %s: %v", pkg.Path, err)
		}
		compare(t, pkg, diags)
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRE also accepts a line offset — `// want(+1) "re"` expects the
// finding one line below the comment — for findings that land on a line
// already occupied by another comment (the diagnostics about
// //evovet:ignore directives land on the directive itself).
var wantRE = regexp.MustCompile(`//\s*want(?:\(([+-]\d+)\))?\s+(.*)$`)

// parseWants extracts expectations from the fixture package's comments.
func parseWants(pkg *analysis.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						return nil, fmt.Errorf("%s: bad want offset %q", pos, m[1])
					}
					line += off
				}
				rest := strings.TrimSpace(m[2])
				n := 0
				for rest != "" {
					var lit string
					var err error
					switch rest[0] {
					case '"':
						end := matchEnd(rest, '"')
						if end < 0 {
							return nil, fmt.Errorf("%s: unterminated want string", pos)
						}
						lit, err = strconv.Unquote(rest[:end+1])
						rest = strings.TrimSpace(rest[end+1:])
					case '`':
						end := matchEnd(rest, '`')
						if end < 0 {
							return nil, fmt.Errorf("%s: unterminated want string", pos)
						}
						lit = rest[1:end]
						rest = strings.TrimSpace(rest[end+1:])
					default:
						return nil, fmt.Errorf("%s: want expects quoted regexps, got %q", pos, rest)
					}
					if err != nil {
						return nil, fmt.Errorf("%s: %v", pos, err)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp: %v", pos, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: line, re: re})
					n++
				}
				if n == 0 {
					return nil, fmt.Errorf("%s: want with no expectation", pos)
				}
			}
		}
	}
	return wants, nil
}

// matchEnd finds the index of the closing quote for the string starting
// at s[0] (which is the opening quote). Double-quoted strings may escape
// the quote with a backslash.
func matchEnd(s string, quote byte) int {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' && quote == '"' {
			i++
			continue
		}
		if s[i] == quote {
			return i
		}
	}
	return -1
}

// compare matches findings against wants, failing the test on any
// surplus in either direction.
func compare(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

// --- fixture loading ---

// loadFixtures parses and type-checks every package directory under
// root, resolving imports fixture-first with a standard-library
// fallback.
func loadFixtures(root string) ([]*analysis.Package, error) {
	dirs := make(map[string][]string) // import path -> files
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		imp := filepath.ToSlash(rel)
		dirs[imp] = append(dirs[imp], path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	parsed := make(map[string][]*ast.File)
	var external []string
	seen := map[string]bool{}
	for imp, files := range dirs {
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			parsed[imp] = append(parsed[imp], f)
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				if _, fixture := dirs[p]; !fixture && p != "unsafe" && !seen[p] {
					seen[p] = true
					external = append(external, p)
				}
			}
		}
	}

	exports, err := stdlibExports(external)
	if err != nil {
		return nil, err
	}
	imp := &fixtureImporter{
		checked: make(map[string]*analysis.Package),
		parsed:  parsed,
		fset:    fset,
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}
	// Type-check every fixture package; Import recursion handles
	// dependency order between fixtures.
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := imp.check(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// fixtureImporter resolves fixture packages from source (recursively
// type-checking them) and everything else from export data.
type fixtureImporter struct {
	checked map[string]*analysis.Package
	parsed  map[string][]*ast.File
	fset    *token.FileSet
	std     types.Importer
	stack   []string
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if _, ok := fi.parsed[path]; ok {
		pkg, err := fi.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return fi.std.Import(path)
}

func (fi *fixtureImporter) check(path string) (*analysis.Package, error) {
	if pkg, ok := fi.checked[path]; ok {
		return pkg, nil
	}
	for _, p := range fi.stack {
		if p == path {
			return nil, fmt.Errorf("fixture import cycle through %q", path)
		}
	}
	fi.stack = append(fi.stack, path)
	defer func() { fi.stack = fi.stack[:len(fi.stack)-1] }()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: fi}
	tpkg, err := conf.Check(path, fi.fset, fi.parsed[path], info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %w", path, err)
	}
	pkg := &analysis.Package{Path: path, Fset: fi.fset, Files: fi.parsed[path], Pkg: tpkg, Info: info}
	fi.checked[path] = pkg
	return pkg, nil
}

// stdlibExports resolves standard-library import paths to export-data
// files via go list.
func stdlibExports(paths []string) (map[string]string, error) {
	exports := make(map[string]string)
	if len(paths) == 0 {
		return exports, nil
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(paths, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}
