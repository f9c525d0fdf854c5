// Command deadcode reports every function and method of the root module
// that no non-test code reaches, and exits 1 if it finds any.
//
//	go run ./scripts/deadcode
//
// It loads the root module and the nested bench/ module with `go list`,
// type-checks their non-test files, and follows references from the roots:
// main and init functions, package-level declarations, every function of
// bench/, methods that satisfy an interface, and the keep-list below. A
// function reached only from unreached functions is reported too. Only the
// standard library is used, so nothing is downloaded.
//
// To keep a function that no non-test code calls, add it to keep with its
// reason. A keep-list entry that names no function, or that non-test code
// already reaches, is itself reported, so the list cannot go stale.
package main

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
	"sort"
	"strings"
)

// keep names the functions that stay without a non-test caller, each with
// its reason. A name is the package's directory in the root module, then
// the function, or the receiver's type and the method.
var keep = map[string]string{
	// The attack matrix: the adversary that the streaming valuation
	// properties (efficiency, symmetry, null player) are to be checked
	// against.
	"internal/attack.Run":            attackMatrix,
	"internal/attack.Matrix.Render":  attackMatrix,
	"internal/attack.Matrix.Sorted":  attackMatrix,
	"internal/attack.LabelFlip":      attackMatrix,
	"internal/attack.LowQuality":     attackMatrix,
	"internal/attack.Replication":    attackMatrix,
	"internal/attack.FreeRide":       attackMatrix,
	"internal/attack.SignFlipAttack": attackMatrix,
	"internal/attack.Collusion":      attackMatrix,

	// Explanations the scoring routes are to serve: why a participant has
	// its score.
	"internal/core.Result.Explain": explanation,
	"internal/core.Result.Profile": explanation,

	"internal/core.MergeResults":        "additivity evidence that EXPERIMENTS.md cites",
	"internal/core.Result.RecallScores": "per-class metric evidence that EXPERIMENTS.md cites",

	// Test-harness seams: the fault injector the chaos tests drive, and the
	// in-process server and client they run against.
	"internal/faults.New":                      seam,
	"internal/faults.Injector.SetSleep":        seam,
	"internal/faults.Injector.Stats":           seam,
	"internal/faults.Injector.SiteStats":       seam,
	"internal/faults.Injector.Total":           seam,
	"internal/server.New":                      seam,
	"internal/server.Client.UploadActivations": seam,
	"internal/server.Client.PublishRoundEval":  seam,
	"internal/server.Client.Trace":             seam,
	"internal/server.Client.Metrics":           seam,
	"internal/server.Client.Rules":             seam,
	"internal/server.Client.Health":            seam,
}

const (
	attackMatrix = "adversary for the valuation-axiom properties"
	explanation  = "explanation API for the scoring routes"
	seam         = "test-harness seam"
)

const rootModule = "repro"

// listed is the part of `go list -json` output the scan reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
}

// fn is one function declaration of the root module.
type fn struct {
	name  string
	pos   token.Position
	lines int
}

func main() {
	problems, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// run loads both modules and returns one line per problem found.
func run() ([]string, error) {
	var pkgs []listed
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		list, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range list {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}

	g := graph{decls: map[*types.Func]fn{}, edges: map[*types.Func][]*types.Func{}}
	var named []*types.Named
	ifaces := map[*types.Interface]bool{}
	for _, p := range pkgs {
		if p.Standard || p.Module == nil {
			continue
		}
		files, err := parseFiles(fset, p)
		if err != nil {
			return nil, err
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if tp, ok := checked[path]; ok {
				return tp, nil
			}
			return std.Import(path)
		})}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp

		inRoot := p.Module.Path == rootModule
		for _, f := range files {
			g.addFile(fset, f, info, tp, inRoot)
		}
		for _, name := range tp.Scope().Names() {
			if t, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !t.IsAlias() {
				if n, ok := t.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		// Every interface the package writes is in info.Types; those of the
		// packages it imports can also be satisfied implicitly, as
		// sort.Sort satisfies sort.Interface.
		for _, imp := range tp.Imports() {
			for _, name := range imp.Scope().Names() {
				if t, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := t.Type().Underlying().(*types.Interface); ok {
						ifaces[it] = true
					}
				}
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
	}
	for _, n := range named {
		g.rootInterfaceMethods(n, ifaces)
	}

	byName := map[string]*types.Func{}
	for f, d := range g.decls {
		byName[d.name] = f
	}
	var problems []string
	var kept []*types.Func
	for name, reason := range keep {
		if f, ok := byName[name]; ok {
			kept = append(kept, f)
		} else {
			problems = append(problems, fmt.Sprintf("keep-list entry %s (%s) names no function", name, reason))
		}
	}
	for i, f := range kept {
		others := append(append(g.roots[:len(g.roots):len(g.roots)], kept[:i]...), kept[i+1:]...)
		if g.reach(others)[f] {
			problems = append(problems, fmt.Sprintf("%s: keep-list entry %s has a non-test caller; drop it from the keep-list",
				g.decls[f].pos, g.decls[f].name))
		}
	}
	sort.Strings(problems)

	live := g.reach(append(g.roots, kept...))
	var dead []fn
	for f, d := range g.decls {
		if !live[f] {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	lines := 0
	for _, d := range dead {
		lines += d.lines
		problems = append(problems, fmt.Sprintf("%s: %s has no non-test caller (%d lines)", d.pos, d.name, d.lines))
	}
	if len(dead) > 0 {
		problems = append(problems, fmt.Sprintf("deadcode: %d functions (%d lines) have no non-test caller; delete them, or keep-list them with a reason in scripts/deadcode", len(dead), lines))
	}
	return problems, nil
}

// goList lists the packages of the module in dir and all their dependencies,
// dependencies first, with the export data of the standard library's.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,ImportMap,Export,Standard,Module", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func parseFiles(fset *token.FileSet, p listed) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// graph holds the root module's function declarations, the functions each
// body references, and the roots, which count as live whatever calls them.
type graph struct {
	decls map[*types.Func]fn
	edges map[*types.Func][]*types.Func
	roots []*types.Func
}

// addFile records f's function declarations (if f is in the root module)
// and the references its code makes.
func (g *graph) addFile(fset *token.FileSet, f *ast.File, info *types.Info, pkg *types.Package, inRoot bool) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !inRoot {
			// A package-level declaration runs (or is reachable) whatever
			// calls what, and bench/ is production code, so what either
			// references is a root.
			g.references(decl, info, nil)
			continue
		}
		owner := info.Defs[fd.Name].(*types.Func)
		start := fd.Pos()
		if fd.Doc != nil {
			start = fd.Doc.Pos()
		}
		g.decls[owner] = fn{
			name:  funcName(owner),
			pos:   fset.Position(fd.Pos()),
			lines: fset.Position(fd.End()).Line - fset.Position(start).Line + 1,
		}
		if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Name() == "main") {
			g.roots = append(g.roots, owner)
		}
		g.references(fd, info, owner)
	}
}

// references records every function node references as an edge from
// owner, or, with a nil owner, as a root.
func (g *graph) references(node ast.Node, info *types.Info, owner *types.Func) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		f, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if owner == nil {
			g.roots = append(g.roots, f.Origin())
		} else {
			g.edges[owner] = append(g.edges[owner], f.Origin())
		}
		return true
	})
}

// rootInterfaceMethods makes a root of every method through which n or *n
// satisfies an interface.
func (g *graph) rootInterfaceMethods(n *types.Named, ifaces map[*types.Interface]bool) {
	for _, t := range []types.Type{n, types.NewPointer(n)} {
		if types.NewMethodSet(t).Len() == 0 {
			continue
		}
		for it := range ifaces {
			if it.NumMethods() == 0 || !it.IsMethodSet() || !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
				if f, ok := obj.(*types.Func); ok {
					g.roots = append(g.roots, f.Origin())
				}
			}
		}
	}
}

// reach returns every function reachable from roots.
func (g *graph) reach(roots []*types.Func) map[*types.Func]bool {
	live := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[f] {
			continue
		}
		live[f] = true
		stack = append(stack, g.edges[f]...)
	}
	return live
}

// funcName names f as the keep-list does: "internal/core.Result.Explain".
func funcName(f *types.Func) string {
	name := f.Name()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return strings.TrimPrefix(strings.TrimPrefix(f.Pkg().Path(), rootModule), "/") + "." + name
}
