package cip_test

// TestNoOrphans keeps exported code under internal/ from outliving its
// callers: every exported package-level func, type, var and const declared
// in a non-test file under internal/ must be referenced by some non-test
// .go file of the module (cmd/, examples/, benchmark/ and the root count),
// or be named in orphanAllow with the reason it stays. It parses the tree
// with go/parser only, so it runs in well under a second and does not skip
// under -short.
//
// A reference is a pkg.Name selector, resolved through the importing
// file's own imports, or a bare identifier inside the declaring package.
// Methods and struct fields are out of scope: an interface can reach them
// with no selector that names them.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// orphanAllow lists exported identifiers that stay without a non-test
// caller. A key is "dir.Name" (dir relative to the module root), or a bare
// dir to allow every exported identifier of that package.
var orphanAllow = map[string]string{
	"internal/fl/faults": "fault injectors for the chaos, tree and byzantine tests; a test-support package by design",

	"internal/nn.GradCheck":                "finite-difference gradient oracle the layer tests run against",
	"internal/nn.SetPackingTestMode":       "test hook forcing the packed-weight paths on small layers",
	"internal/tensor.SetWorkspaceTestMode": "test hook that runs steps on the heap or poisons released workspace storage",
	"internal/tensor.WorkspaceStats":       "idle-workspace and slab-byte counts the recycling tests assert",

	"internal/tensor.MatMul":           "reference product the packed, parallel and f32 GEMM tests compare against",
	"internal/tensor.MatMulTransA":     "reference product the workspace and transposed-GEMM tests compare against",
	"internal/tensor.MatMulBiasInto":   "unpacked reference the packed-B GEMM tests compare against",
	"internal/tensor.MatMulTransBInto": "unpacked reference the packed-B GEMM tests compare against",
	"internal/tensor.Transpose":        "reference transpose the transposed-GEMM tests compare against",
	"internal/tensor.Im2Col":           "allocating lowering the adjoint and worker-team tests compare against",
	"internal/tensor.Col2Im":           "allocating adjoint of Im2Col the adjoint test checks",
	"internal/tensor.Dot":              "inner product the im2col/col2im adjoint test uses",
	"internal/tensor.Equal":            "tolerance comparison the tensor and layer tests use",

	"internal/fl/robust.SampleRankError": "the DKW bound the sketch-error tests assert",
	"internal/flcli.LoadGlobal":          "reader for SaveGlobal's container, which the flcli round-trip tests use",
	"internal/attacks.ObCalibrated":      "difficulty-calibrated attack (Watson et al.), kept for the attack audit (ROADMAP item 3)",
	"internal/defenses.EpsilonFor":       "inverse of NoiseMultiplierFor, kept for the ε accounting (ROADMAP item 2(a))",
	"internal/nn.FlattenGrads":           "flat gradient vector the shared-backbone and gradcheck tests compare",
}

func TestNoOrphans(t *testing.T) {
	mod, fset, pkgs := parseModule(t)

	declared := map[string]token.Pos{} // "dir.Name" -> declaration
	used := map[string]bool{}
	for dir, files := range pkgs {
		for _, f := range files {
			imports := fileImports(f, mod, pkgs)
			for _, decl := range f.Decls {
				self := declNames(decl)
				if fd, ok := decl.(*ast.FuncDecl); strings.HasPrefix(dir, "internal/") && (!ok || fd.Recv == nil) {
					for _, id := range self {
						if id.IsExported() {
							declared[dir+"."+id.Name] = id.Pos()
						}
					}
				}
				ast.Inspect(decl, refs(dir, imports, self, used))
			}
		}
	}

	allowed := map[string]bool{}
	var orphans []string
	for key, pos := range declared {
		dir := key[:strings.LastIndex(key, ".")]
		switch {
		case used[key]:
		case orphanAllow[key] != "":
			allowed[key] = true
		case orphanAllow[dir] != "":
			allowed[dir] = true
		default:
			orphans = append(orphans, fmt.Sprintf("%s: %s", fset.Position(pos), key))
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is exported but no non-test code references it: wire it in, delete it, or add it to orphanAllow with a reason", o)
	}
	var stale []string
	for key := range orphanAllow {
		if !allowed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("orphanAllow entry %q is stale: it no longer exists or now has a non-test caller; remove it", key)
	}
}

// refs returns an ast.Inspect visitor that marks in used ("dir.Name")
// every package-level identifier the visited code names, except those its
// own declaration introduces (self): a declaration, or a method of a type,
// does not keep itself alive.
func refs(dir string, imports map[string]string, self []*ast.Ident, used map[string]bool) func(ast.Node) bool {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if rel, ok := imports[x.Name]; ok {
					used[rel+"."+n.Sel.Name] = true
					return false
				}
			}
			// x.Field or x.Method: only the operand can name a
			// package-level identifier.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field:
			// Field and parameter names declare; only the type refers.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			for _, id := range self {
				if id.Name == n.Name {
					return false
				}
			}
			used[dir+"."+n.Name] = true
		}
		return true
	}
	return visit
}

// declNames returns the identifiers a top-level declaration introduces
// and, for a method, its receiver's type name.
func declNames(decl ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		ids = append(ids, d.Name)
		if d.Recv != nil {
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) { // a generic receiver T[P] or T[P, Q]
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				ids = append(ids, id)
			}
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
	}
	return ids
}

// parseModule parses every non-test .go file of the module, skipping
// dot-directories and testdata, and returns the module path and the files
// keyed by module-relative directory.
func parseModule(t *testing.T) (string, *token.FileSet, map[string][]*ast.File) {
	t.Helper()
	mod, err := modulePath()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // module-relative dir -> its non-test files
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return mod, fset, pkgs
}

// fileImports maps a file's import names to module-relative directories.
// Imports from outside the module cannot name an internal identifier.
func fileImports(f *ast.File, mod string, pkgs map[string][]*ast.File) map[string]string {
	imports := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		rel, ok := strings.CutPrefix(p, mod+"/")
		if !ok || len(pkgs[rel]) == 0 {
			continue
		}
		name := pkgs[rel][0].Name.Name
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = rel
	}
	return imports
}

func modulePath() (string, error) {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", errors.New("go.mod declares no module")
}
