package analyzers

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
	"strconv"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	markers *markerIndex // directive comments, indexed once for every rule and engine
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps` in dir over the patterns
// and decodes the stream of package objects.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies type-check imports from the gc export data
// files that `go list -export` wrote into the build cache.
type exportImporter struct {
	gc      types.Importer
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, listed []*listedPackage) *exportImporter {
	ei := &exportImporter{exports: make(map[string]string, len(listed))}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	ei.gc = importer.ForCompiler(fset, "gc", lookup)
	for _, p := range listed {
		if p.Export != "" {
			ei.exports[p.ImportPath] = p.Export
		}
	}
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.gc.Import(path)
}

// typeCheck parses and type-checks one package from its source files.
func typeCheck(fset *token.FileSet, importPath, dir string, fileNames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("package %s: no Go files", importPath)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		markers:    indexMarkers(fset, files),
	}, nil
}

// moduleImporter resolves imports of analyzed (source-checked)
// packages to their source-checked *types.Package, falling back to gc
// export data for everything else. Sharing one object universe across
// the module is what gives the call graph pointer identity: the
// *types.Func a caller resolves must be the same object the callee's
// package defined, or interprocedural facts cannot flow.
type moduleImporter struct {
	exports *exportImporter
	source  map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p := mi.source[path]; p != nil {
		return p, nil
	}
	return mi.exports.Import(path)
}

// Load type-checks the packages matching the patterns (resolved by the
// go command from dir; "" means the current directory). Only non-test
// Go files are analyzed, matching what ships in builds. Packages are
// checked in dependency order (`go list -deps` emits dependencies
// first), so every intra-module import resolves to the source-checked
// package.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{
		exports: newExportImporter(fset, listed),
		source:  make(map[string]*types.Package),
	}
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard {
			continue
		}
		pkg, err := typeCheck(fset, p.ImportPath, p.Dir, p.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		imp.source[p.ImportPath] = pkg.Types
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// LoadDir type-checks a standalone directory of Go files that is not
// part of the module's package graph (the analysistest golden packages
// under testdata/src). Imports are resolved to gc export data by
// listing the imported paths explicitly.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var fileNames []string
	imports := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fileNames = append(fileNames, e.Name())
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err == nil && path != "unsafe" {
				imports[path] = true
			}
		}
	}
	sort.Strings(fileNames)
	var listed []*listedPackage
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err = goList(dir, paths)
		if err != nil {
			return nil, err
		}
	}
	// Positions from the ImportsOnly pass above are discarded; parse
	// fresh on a clean fileset shared with the importer.
	fset = token.NewFileSet()
	imp := newExportImporter(fset, listed)
	return typeCheck(fset, filepath.Base(dir), dir, fileNames, imp)
}

// RunAnalyzer applies one analyzer to one loaded package.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		report:    func(d Diagnostic) { diags = append(diags, d) },
		markers:   pkg.markers,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders findings by position, then analyzer name, so
// suite output is stable however the rules and the fact engine
// interleave.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Pos, diags[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
