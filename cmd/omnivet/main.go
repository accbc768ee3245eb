// omnivet is the repo-local static-analysis pass, run in CI next to
// go vet. It enforces one project convention the stock vet cannot
// know about: no string-matching on error text. The serving and host
// layers export typed sentinels (core.ErrBudget, core.ErrInterrupted,
// and friends); code that calls strings.Contains/HasPrefix/... on
// err.Error(), or compares err.Error() against a literal, is matching
// on presentation instead of identity and breaks the moment a message
// is reworded. Use errors.Is.
//
// Test files are exempt: _test.go code legitimately asserts on
// rendered error bodies (HTTP 422 text has no sentinel to compare
// against), and the driver analyzes GoFiles only.
//
// Usage:
//
//	omnivet [packages]   (default ./...)
//
// Exit codes follow the serving convention: 0 clean, 1 when findings
// were reported, 2 for infrastructure failure.
//
// The driver is deliberately stdlib-only (the module has no
// dependencies and CI must not fetch any): package metadata and
// export data come from `go list -export -deps -json`, and types come
// from go/types with importer.ForCompiler reading that export data.
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
	"sort"
)

func main() {
	os.Exit(runIn("", os.Args[1:], os.Stdout, os.Stderr))
}

// listPkg is the subset of `go list -json` output the driver needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string            // export data file (-export)
	GoFiles    []string          // source files, tests excluded
	ImportMap  map[string]string // import path → resolved path
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// runIn is main minus the process exit, so tests can drive it against
// another module directory (dir == "" means the current one).
func runIn(dir string, args []string, stdout, stderr io.Writer) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(stderr, "omnivet: go list: %v\n", err)
		return 2
	}

	// Decode the package stream: deps first, roots last. Every listed
	// package contributes export data; non-DepOnly module packages are
	// the analysis roots.
	exports := map[string]string{} // import path → export file
	var roots []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(stderr, "omnivet: decoding go list output: %v\n", err)
			return 2
		}
		if p.Error != nil {
			fmt.Fprintf(stderr, "omnivet: %s: %s\n", p.ImportPath, p.Error.Err)
			return 2
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			q := p
			roots = append(roots, &q)
		}
	}

	fset := token.NewFileSet()
	var findings []finding
	for _, p := range roots {
		fs, err := analyze(fset, p, exports)
		if err != nil {
			fmt.Fprintf(stderr, "omnivet: %s: %v\n", p.ImportPath, err)
			return 2
		}
		findings = append(findings, fs...)
	}

	sort.Slice(findings, func(i, j int) bool {
		pi, pj := fset.Position(findings[i].pos), fset.Position(findings[j].pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s: %s\n", fset.Position(f.pos), f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "omnivet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// analyze parses and typechecks one package against its dependencies'
// export data, then runs the checks.
func analyze(fset *token.FileSet, p *listPkg, exports map[string]string) ([]finding, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, p.Dir+"/"+name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if real, ok := p.ImportMap[path]; ok {
			path = real
		}
		ef, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ef)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(error) {}, // collect what we can; hard errors surface below
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("typecheck: %v", err)
	}

	var findings []finding
	for _, f := range files {
		findings = append(findings, checkFile(f, info)...)
	}
	return findings, nil
}
