package redfat_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// docIdentRE matches a cited test, fuzz target or benchmark, with an
	// optional trailing '*' marking a name prefix.
	docIdentRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	// docMakeRE matches `make <target>` in prose; docMakeLineRE matches a
	// make command line inside a fenced code block.
	docMakeRE     = regexp.MustCompile("`make\\s+([A-Za-z0-9_-]+)")
	docMakeLineRE = regexp.MustCompile(`^\s*make ([A-Za-z0-9_-]+)`)
	makeTargetRE  = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):([^=]|$)`)
)

// TestDocsReferencesResolve: every Test*/Fuzz* name the docs cite is a
// func (or method) declared in this module, every Benchmark* name is a
// prefix of a declared benchmark (the docs use them as -bench regexes),
// and every `make <target>` is a target of the Makefile. A renamed,
// folded or retired test or target then fails here, not in a reader's
// shell.
func TestDocsReferencesResolve(t *testing.T) {
	funcs := declaredFuncs(t)
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRE.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checkTarget := func(line int, target string) {
			if !targets[target] {
				t.Errorf("%s:%d: make %s is not a Makefile target", doc, line, target)
			}
		}
		// A `make <target>` span may wrap across lines.
		for _, m := range docMakeRE.FindAllSubmatchIndex(data, -1) {
			checkTarget(1+strings.Count(string(data[:m[0]]), "\n"), string(data[m[2]:m[3]]))
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if m := docMakeLineRE.FindStringSubmatch(line); fenced && m != nil {
				checkTarget(i+1, m[1])
			}
			for _, name := range docIdentRE.FindAllString(line, -1) {
				prefix := strings.HasSuffix(name, "*") || strings.HasPrefix(name, "Benchmark")
				name = strings.TrimSuffix(name, "*")
				if !resolves(funcs, name, prefix) {
					t.Errorf("%s:%d: %s is not declared in the module", doc, i+1, name)
				}
			}
		}
	}
}

// declaredFuncs returns the names of every func and method declared in
// the module's Go files, test files included. Nested modules and
// testdata are not part of the module.
func declaredFuncs(t *testing.T) map[string]bool {
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				funcs[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// resolves reports whether name is declared, or with prefix set, whether
// some declared name starts with it.
func resolves(funcs map[string]bool, name string, prefix bool) bool {
	if funcs[name] {
		return true
	}
	if prefix {
		for f := range funcs {
			if strings.HasPrefix(f, name) {
				return true
			}
		}
	}
	return false
}
