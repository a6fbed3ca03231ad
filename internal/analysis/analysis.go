// Package analysis is evovet: a project-specific static-analysis suite
// that mechanically enforces the engine's concurrency, allocation, and
// wire invariants. go test only samples these invariants; the analyzers
// here check every function of every package on every change.
//
// The suite is built directly on go/ast and go/types (the module has no
// external dependencies, so golang.org/x/tools/go/analysis is off the
// table); the Analyzer/Pass shape deliberately mirrors that package so
// the analyzers could be ported to a x/tools multichecker verbatim if a
// dependency ever becomes acceptable.
//
// Analyzers:
//
//   - ctxthread: a function that receives a context.Context (or an
//     *http.Request) and constructs bb.Options/pbb.Options must thread
//     the context into the options' Ctx field — the PR 7 bug class,
//     where evoweb built search options from a request without its
//     context and abandoned searches ran to the node cap.
//   - atomicmix: a struct field accessed through sync/atomic anywhere
//     must never be read or written plainly elsewhere in the package,
//     and 64-bit fields used with the atomic functions must be 8-byte
//     aligned under 32-bit layout rules.
//   - probeguard: every emission on an obs.Probe interface value must
//     sit behind the established nil-probe guard idiom, so the
//     documented zero-alloc uninstrumented path cannot regress.
//   - unsafeslab: unsafe is confined to the slab allocator
//     (internal/bb/pnode.go) and, there, to the carve-from-one-
//     allocation pattern.
//   - wirestrict: wire structs of internal/dist and internal/web carry
//     exhaustive json tags and wire payloads are decoded strictly
//     (DisallowUnknownFields), preserving the 400-on-unknown-field
//     contract.
//   - kindswitch: every switch over obs.Kind covers all declared event
//     kinds or carries an explicit default, so growing the telemetry
//     vocabulary cannot silently drop events in a forgotten consumer.
//   - onestep: (*bb.Problem).Expand, PropagatedLB and the step's
//     propagation test propagatedPrunes are called only by bb.Step
//     (internal/bb/step.go), so every engine runs the one search step
//     instead of a hand-copied loop that can drift.
//
// A finding can be suppressed with an in-code justification:
//
//	//evovet:ignore <analyzer> <reason>
//
// on the finding's line or the line above it. Suppressions without a
// reason, naming an unknown analyzer, or suppressing nothing are
// themselves findings, so undocumented or stale suppressions fail the
// build.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Suite returns the full evovet analyzer suite, in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{
		AtomicMix,
		CtxThread,
		KindSwitch,
		OneStep,
		ProbeGuard,
		UnsafeSlab,
		WireStrict,
	}
}

// Check runs analyzers over pkg and applies the //evovet:ignore
// suppression directives: justified suppressions silence their finding,
// while malformed, unknown, or unused directives surface as findings of
// the pseudo-analyzer "directive". The returned diagnostics are sorted
// by position.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	// The invariants are production-code contracts; when the driver is a
	// test variant (go vet compiles *_test.go into the package), the test
	// files are exempt — tests legitimately build detached options,
	// decode leniently, and poke probes directly.
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	var diags []Diagnostic
	for _, an := range analyzers {
		pass := &Pass{
			Analyzer:  an,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := an.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", an.Name, pkg.Path, err)
		}
	}
	known := make(map[string]bool)
	for _, an := range Suite() {
		known[an.Name] = true
	}
	ran := make(map[string]bool)
	for _, an := range analyzers {
		known[an.Name] = true
		ran[an.Name] = true
	}
	diags = applyDirectives(pkg.Fset, files, diags, known, ran)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// pkgPath normalizes a types.Package path for analyzer configuration
// matching: "evotree/internal/bb [evotree/internal/bb.test]" (a test
// variant compiled by go vet) matches the plain package path.
func pkgPath(p *types.Package) string {
	path := p.Path()
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return path
}

// isNamed reports whether t (after stripping aliases) is the named type
// pkg.name. Matching is by path+name string, not object identity: the
// driver may see the same package both type-checked from source (as a
// target) and imported from export data (as a dependency).
func isNamed(t types.Type, pkg, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && pkgPath(n.Obj().Pkg()) == pkg
}
