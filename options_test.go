package cip_test

// TestNoUnsetOptions keeps the option structs from carrying settings no
// program sets: every exported field of the types in optionTypes must be
// written by some non-test .go file of the module, or be named in
// optionAllow with the reason it stays. A field nothing but tests set is a
// constant in disguise; make it one at its default and delete the code
// only another value could reach. Like TestNoOrphans it parses the tree
// with go/parser only and does not skip under -short.
//
// A write is a key in a composite literal of the type (pkg.T{F: …},
// &pkg.T{F: …}, or an element of a []T or map[K]T literal with its type
// elided), or an assignment x.F = … where x is of the type. The gate
// types x from the function's receiver, parameters, var declarations and
// composite-literal definitions, and from struct field types along a
// selector chain. An assignment whose x it cannot type counts for every
// listed type with a field F. A type's own methods do not set its options:
// that is where defaults are filled in.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// optionTypes lists the option structs the gate covers, as "dir.Type"
// with dir relative to the module root.
var optionTypes = []string{
	"internal/fl/transport.Coordinator",
	"internal/fl/transport.Leaf",
	"internal/fl/transport.RetryConfig",
	"internal/fl.RoundPolicy",
	"internal/fl.RunOptions",
	"internal/fl.ClientConfig",
	"internal/core.TrainConfig",
	"internal/fl/checkpoint.Manager",
	"internal/experiments.CheckpointSpec",
	"internal/fl/compress.Config",
	"internal/fl/robust.Median",
	"internal/fl/robust.TrimmedMean",
	"internal/fl/robust.ClippedMean",
}

// optionAllow lists option fields that stay although no program sets
// them, keyed "dir.Type.Field".
var optionAllow = map[string]string{
	"internal/fl/transport.Coordinator.TreeSketchCap": "the sketch's accuracy/memory trade-off (robust.SampleRankError); its tests need a capacity a few loopback leaves can overflow",
	"internal/fl.ClientConfig.LocalEpochs":            "the paper's local-epoch count, a training hyperparameter like core.TrainConfig.LocalEpochs (which the benchmark sets); the attack tests train two epochs",
	"internal/fl.RoundPolicy.MaxUpdateNorm":           "the in-process engine's twin of Coordinator.MaxUpdateNorm, which flserver's -max-update-norm sets; both engines validate through fl.ValidateUpdateBounded",
}

func TestNoUnsetOptions(t *testing.T) {
	mod, fset, pkgs := parseModule(t)

	structs := map[string]structDecl{} // "dir.Type" -> every struct of the module
	for dir, files := range pkgs {
		for _, f := range files {
			imports := fileImports(f, mod, pkgs)
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							if st, ok := ts.Type.(*ast.StructType); ok {
								structs[dir+"."+ts.Name.Name] = structDecl{st, dir, imports}
							}
						}
					}
				}
			}
		}
	}

	fields := map[string]ast.Node{} // "dir.Type.Field" -> declaration
	for _, key := range optionTypes {
		sd, ok := structs[key]
		if !ok {
			t.Errorf("optionTypes entry %q names no struct type; remove it", key)
			continue
		}
		for _, f := range sd.st.Fields.List {
			for _, name := range f.Names {
				if name.IsExported() {
					fields[key+"."+name.Name] = name
				}
			}
		}
	}

	written := map[string]bool{}  // "dir.Type.Field" set by a literal key or a typed assignment
	assigned := map[string]bool{} // field names assigned through an untyped selector
	for dir, files := range pkgs {
		for _, f := range files {
			imports := fileImports(f, mod, pkgs)
			for _, decl := range f.Decls {
				var recv string
				scope := map[string]string{} // local name -> "dir.Type"
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = typeKey(fd.Recv.List[0].Type, dir, imports)
				}
				declareLocals(decl, scope, dir, imports)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						literalKeys(n, typeKey(n.Type, dir, imports), dir, imports, written)
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							sel, ok := lhs.(*ast.SelectorExpr)
							if !ok {
								continue
							}
							switch t := exprType(sel.X, scope, imports, structs); t {
							case "":
								assigned[sel.Sel.Name] = true
							case recv:
							default:
								written[t+"."+sel.Sel.Name] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	allowed := map[string]bool{}
	var unset []string
	for key, decl := range fields {
		name := key[strings.LastIndex(key, ".")+1:]
		switch {
		case written[key] || assigned[name]:
			if optionAllow[key] != "" {
				t.Errorf("optionAllow entry %q is stale: non-test code now sets it; remove it", key)
			}
		case optionAllow[key] != "":
			allowed[key] = true
		default:
			unset = append(unset, fmt.Sprintf("%s: %s", fset.Position(decl.Pos()), key))
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is an option no non-test code sets: make it a constant at its default, or add it to optionAllow with a reason", u)
	}
	for key := range optionAllow {
		if _, ok := fields[key]; !ok {
			t.Errorf("optionAllow entry %q names no field of an optionTypes struct; remove it", key)
		}
	}
}

// typeKey resolves a type expression to "dir.Type", or "" for a type
// declared outside the module or written as anything but a (pointer to a)
// named type.
func typeKey(expr ast.Expr, dir string, imports map[string]string) string {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	switch e := expr.(type) {
	case *ast.Ident:
		return dir + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
			return imports[x.Name] + "." + e.Sel.Name
		}
	}
	return ""
}

// structDecl is a struct type with the directory and imports of the file
// declaring it, which its field types are resolved against.
type structDecl struct {
	st      *ast.StructType
	dir     string
	imports map[string]string
}

// declareLocals records in scope the type of every name decl declares
// with a resolvable type: receivers and parameters, var declarations, and
// definitions from a composite literal or its address. Shadowing is
// ignored.
func declareLocals(decl ast.Decl, scope map[string]string, dir string, imports map[string]string) {
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				declareFields(n.Recv, scope, dir, imports)
			}
		case *ast.FuncType:
			declareFields(n.Params, scope, dir, imports)
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, name := range n.Names {
					scope[name.Name] = typeKey(n.Type, dir, imports)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				break
			}
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[i]
				if u, ok := rhs.(*ast.UnaryExpr); ok {
					rhs = u.X
				}
				if id, ok := lhs.(*ast.Ident); ok {
					if lit, ok := rhs.(*ast.CompositeLit); ok {
						scope[id.Name] = typeKey(lit.Type, dir, imports)
					}
				}
			}
		}
		return true
	})
}

func declareFields(fl *ast.FieldList, scope map[string]string, dir string, imports map[string]string) {
	for _, f := range fl.List {
		for _, name := range f.Names {
			scope[name.Name] = typeKey(f.Type, dir, imports)
		}
	}
}

// exprType resolves the named struct type of a variable or a chain of
// field selections from one, or returns "".
func exprType(e ast.Expr, scope map[string]string, imports map[string]string, structs map[string]structDecl) string {
	switch e := e.(type) {
	case *ast.Ident:
		return scope[e.Name]
	case *ast.ParenExpr:
		return exprType(e.X, scope, imports, structs)
	case *ast.StarExpr:
		return exprType(e.X, scope, imports, structs)
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && scope[x.Name] == "" && imports[x.Name] != "" {
			return "" // a package-level variable
		}
		sd, ok := structs[exprType(e.X, scope, imports, structs)]
		if !ok {
			return ""
		}
		for _, f := range sd.st.Fields.List {
			for _, name := range f.Names {
				if name.Name == e.Sel.Name {
					return typeKey(f.Type, sd.dir, sd.imports)
				}
			}
		}
	}
	return ""
}

// literalKeys marks in written the keys of a composite literal of type
// key, and, for a slice, array or map literal, those of its elements
// whose type is elided.
func literalKeys(lit *ast.CompositeLit, key, dir string, imports map[string]string, written map[string]bool) {
	var elem string
	switch t := lit.Type.(type) {
	case *ast.ArrayType:
		elem = typeKey(t.Elt, dir, imports)
	case *ast.MapType:
		elem = typeKey(t.Value, dir, imports)
	}
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && key != "" {
				written[key+"."+id.Name] = true
			}
			e = kv.Value
		}
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = u.X
		}
		if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil && elem != "" {
			literalKeys(inner, elem, dir, imports, written)
		}
	}
}
