package nocs_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestEveryExportedFieldIsSet is the field-level counterpart of
// scripts/reach.sh. reach.sh sees functions only, so behaviour switched on
// by an exported field that only tests set, or nothing sets, is linked into
// every binary and passes it. This test type-checks every non-test package
// of both modules (the root one and benchmark/) from source and lists each
// exported field of an exported struct under internal/ that no non-test
// code writes. A write is an assignment (through any chain of value fields
// and array elements, so x.F.G = v writes F and G), an inc/dec, a range
// assignment, &x.F, or a composite literal naming the field or listing
// values by position. Calling a pointer method on x.F is not a write: a
// field that only its own defaults code touches is still unset.
//
// Every such field must be listed, with its reason, in
// scripts/knob_baseline.txt, and every entry there must name such a field.
// The scan takes a few seconds (it type-checks the standard library it
// imports from source).
func TestEveryExportedFieldIsSet(t *testing.T) {
	start := time.Now()
	s := newFieldScan(t)
	unset := s.unsetFields()
	t.Logf("%d packages, %d exported fields under internal/, %d unset (%.1fs)",
		len(s.pkgs), len(s.fields), len(unset), time.Since(start).Seconds())

	base := readKnobBaseline(t, "scripts/knob_baseline.txt")
	for _, name := range unset {
		if !base[name] {
			t.Errorf("%s is written by no non-test code and is not in scripts/knob_baseline.txt", name)
		}
	}
	for name := range base {
		if !slices.Contains(unset, name) {
			t.Errorf("baseline entry %s names no exported field that is unset", name)
		}
	}
}

// readKnobBaseline returns the baseline's entries. A line is a field name
// (as the test prints it) and a reason after '#'; a line that starts with
// '#' is a comment.
func readKnobBaseline(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		name = strings.TrimSpace(name)
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: entry %s gives no reason", path, n, name)
		}
		base[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return base
}

// fieldScan type-checks the repository's packages into one types.Info, so
// every package sees the same field objects.
type fieldScan struct {
	t      *testing.T
	root   string
	fset   *token.FileSet
	std    types.Importer
	info   *types.Info
	pkgs   map[string]*types.Package
	files  []*ast.File
	fields map[*types.Var]string // exported fields under internal/, by name
}

func newFieldScan(t *testing.T) *fieldScan {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	s := &fieldScan{
		t:      t,
		root:   root,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		info:   &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Uses: make(map[*ast.Ident]types.Object), Selections: make(map[*ast.SelectorExpr]*types.Selection)},
		pkgs:   make(map[string]*types.Package),
		fields: make(map[*types.Var]string),
	}
	// Both modules' import paths are their directories under "nocs".
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(s.goFiles(path)) > 0 {
			rel, _ := filepath.Rel(root, path)
			_, err = s.Import(strings.TrimSuffix("nocs/"+filepath.ToSlash(rel), "/."))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goFiles lists dir's non-test Go files for this build.
func (s *fieldScan) goFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		s.t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			s.t.Fatal(err)
		} else if ok {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out
}

// Import checks a repository package on first use and hands every other
// import to the standard library's source importer.
func (s *fieldScan) Import(path string) (*types.Package, error) {
	if path != "nocs" && !strings.HasPrefix(path, "nocs/") {
		return s.std.Import(path)
	}
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(s.root, strings.TrimPrefix(path, "nocs"))
	var files []*ast.File
	for _, name := range s.goFiles(dir) {
		f, err := parser.ParseFile(s.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	s.files = append(s.files, files...)
	if rel, ok := strings.CutPrefix(path, "nocs/internal/"); ok {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					s.fields[f] = rel + "." + name + "." + f.Name()
				}
			}
		}
	}
	return p, nil
}

// unsetFields returns the names of the exported fields no checked file
// writes, sorted.
func (s *fieldScan) unsetFields() []string {
	written := make(map[*types.Var]bool)
	mark := func(v *types.Var) { written[v.Origin()] = true }
	// lhs marks the fields an assignment to e writes: the selected field
	// and, while the write lands inside a value (not behind a pointer,
	// slice or map), the fields enclosing it.
	lhs := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				sel := s.info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				mark(sel.Obj().(*types.Var))
				if sel.Indirect() {
					return
				}
				e = x.X
			case *ast.IndexExpr:
				if _, ok := s.info.Types[x.X].Type.Underlying().(*types.Array); !ok {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range s.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, e := range x.Lhs {
					lhs(e)
				}
			case *ast.IncDecStmt:
				lhs(x.X)
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{x.Key, x.Value} {
						if e != nil {
							lhs(e)
						}
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					lhs(x.X)
				}
			case *ast.CompositeLit:
				typ := s.info.Types[x].Type
				if p, ok := typ.Underlying().(*types.Pointer); ok {
					typ = p.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if v, ok := s.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(v)
						}
					} else {
						mark(st.Field(i))
					}
				}
			}
			return true
		})
	}
	var unset []string
	for v, name := range s.fields {
		if !written[v] {
			unset = append(unset, name)
		}
	}
	slices.Sort(unset)
	return unset
}
