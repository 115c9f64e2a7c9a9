package sched_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"testing"
)

// TestWorkerFallbackTypeChecks: go.mod admits a go1.22 toolchain, which has no
// iter.Pull, and there worker_chan.go stands in for worker_coro.go. A go1.23
// or later toolchain never compiles that file, so the test selects the
// package's files as go1.22 would and type-checks them, dependencies from
// source.
func TestWorkerFallbackTypeChecks(t *testing.T) {
	ctxt := build.Default
	ctxt.ReleaseTags = nil
	for _, tag := range build.Default.ReleaseTags {
		ctxt.ReleaseTags = append(ctxt.ReleaseTags, tag)
		if tag == "go1.22" {
			break
		}
	}
	pkg, err := ctxt.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(pkg.GoFiles, "worker_chan.go") || slices.Contains(pkg.GoFiles, "worker_coro.go") {
		t.Fatalf("a go1.22 build takes %v", pkg.GoFiles)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range pkg.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil), GoVersion: "go1.22"}
	if _, err := conf.Check("lineup/internal/sched", fset, files, nil); err != nil {
		t.Fatalf("the go1.22 files do not type-check: %v", err)
	}
}
