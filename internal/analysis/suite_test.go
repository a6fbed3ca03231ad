package analysis_test

import (
	"testing"

	"evotree/internal/analysis"
)

func TestCtxThread(t *testing.T)  { runFixtures(t, "ctxthread", analysis.CtxThread) }
func TestAtomicMix(t *testing.T)  { runFixtures(t, "atomicmix", analysis.AtomicMix) }
func TestProbeGuard(t *testing.T) { runFixtures(t, "probeguard", analysis.ProbeGuard) }
func TestUnsafeSlab(t *testing.T) { runFixtures(t, "unsafeslab", analysis.UnsafeSlab) }
func TestWireStrict(t *testing.T) { runFixtures(t, "wirestrict", analysis.WireStrict) }
func TestKindSwitch(t *testing.T) { runFixtures(t, "kindswitch", analysis.KindSwitch) }
func TestOneStep(t *testing.T)    { runFixtures(t, "onestep", analysis.OneStep) }

// TestDirectives exercises the //evovet:ignore machinery: justified
// suppressions silence findings, while reasonless, unknown, malformed,
// and stale directives are findings themselves — which is what makes an
// undocumented suppression fail the build.
func TestDirectives(t *testing.T) { runFixtures(t, "directives", analysis.ProbeGuard) }

// TestSuiteCleanOnTree runs the full suite over the real module: the
// tree must stay evovet-clean (modulo justified suppressions), exactly
// as CI enforces.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Check(pkg, analysis.Suite())
		if err != nil {
			t.Fatalf("checking %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}
