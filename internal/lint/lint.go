// Package lint is cclint's analyzer suite: project-specific static analyses
// that machine-check the invariants DESIGN.md states in prose — the lock
// hierarchy, the zero-allocation hot path, the Recycle aliasing rules,
// atomics-only field access, and goroutine join discipline in the
// simulator. Each analyzer is written against internal/lint/analysis (a
// stdlib-only core mirroring golang.org/x/tools/go/analysis) and tested
// with golden fixtures under testdata/src via internal/lint/linttest.
//
// See DESIGN.md "Static analysis" for the analyzer ↔ invariant map and the
// //optcc:hotpath, //optcc:release and //cclint:ignore conventions.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"optcc/internal/lint/analysis"
	"optcc/internal/lint/loader"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Atomiconly,
		Gojoin,
		Hotpath,
		LockOrder,
		Recycle,
	}
}

// Finding is one diagnostic after ignore filtering, ready to print.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// BuildShared builds the whole-program index over every loaded package.
// Pass every module package here (loader.Load returns dependencies too) so
// cross-package annotation and atomic-access lookups are complete even when
// only a subset is analyzed.
func BuildShared(pkgs []*loader.Package) *analysis.Shared {
	sh := analysis.NewShared()
	for _, p := range pkgs {
		collectAnnotations(p, sh)
		collectAtomicFields(p, sh)
	}
	// Lock summaries need the full package set too: a helper in one package
	// may take a tracked lock on behalf of a caller in another.
	buildLockSummaries(pkgs, sh)
	return sh
}

// Run applies the given analyzers to every root package in pkgs (non-roots
// only feed the shared index), filters ignored diagnostics, and returns the
// findings sorted by position.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	sh := BuildShared(pkgs)
	idx := &ignoreIndex{byLine: map[string]map[int]map[string]bool{}}
	for _, p := range pkgs {
		if p.Root {
			collectIgnores(p, idx)
		}
	}
	findings := append([]Finding(nil), idx.malformed...)
	for _, a := range analyzers {
		for _, p := range pkgs {
			if !p.Root {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Syntax,
				Pkg:       p.Types,
				TypesInfo: p.TypesInfo,
				Shared:    sh,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := p.Fset.Position(d.Pos)
				if idx.suppressed(a.Name, pos) {
					return
				}
				findings = append(findings, Finding{Pos: pos, Analyzer: a.Name, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, p.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
