package dkindex

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sourceFile is one non-test .go file: its slash-separated path and imports.
type sourceFile struct {
	path    string
	imports []string
}

// walkSources calls visit with the slash-separated path of every .go file of
// this module, test files included, skipping the directories named in skip.
// The benchmark module (its own go.mod), hidden directories and testdata are
// not this module's code and are skipped too.
func walkSources(t *testing.T, skip []string, visit func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || slices.Contains(skip, filepath.ToSlash(path)) {
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
		return visit(filepath.ToSlash(path))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// nonTestImports reads the imports of this module's non-test .go files,
// skipping the directories named in skip.
func nonTestImports(t *testing.T, skip ...string) []sourceFile {
	t.Helper()
	var files []sourceFile
	walkSources(t, skip, func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		file := sourceFile{path: path}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			file.imports = append(file.imports, p)
		}
		files = append(files, file)
		return nil
	})
	if len(files) < 50 {
		t.Fatalf("parsed only %d non-test files; the walk missed the module", len(files))
	}
	return files
}

// TestNothingServesTheShardEngine pins the retirement of sharded serving by
// reading the source: internal/shard is kept only for the benchmark module's
// fan-out probe, so no non-test .go file of this module outside that package
// may import it. A command, server or facade that wires the engine back in
// fails here by name.
func TestNothingServesTheShardEngine(t *testing.T) {
	const engine = "dkindex/internal/shard"
	for _, f := range nonTestImports(t, "internal/shard") {
		if slices.Contains(f.imports, engine) {
			t.Errorf("%s imports %s, which is kept only for benchmark/probes.go", f.path, engine)
		}
	}
}

// testSupport are the packages only tests import: the reference oracles the
// kernels are audited against, the Prometheus text parser, the copy-on-write
// isolation check and the faulty filesystem and network. `make size` counts
// them apart from the production lines.
var testSupport = []string{"internal/oracle", "internal/obs/promtest", "internal/cow/cowtest", "internal/faultfs", "internal/faultnet"}

// TestOnlyTestsImportTestSupport keeps the test-support packages out of
// every binary: they are imported by _test.go files only. A non-test file
// outside those packages that imports one fails here by name.
func TestOnlyTestsImportTestSupport(t *testing.T) {
	for _, f := range nonTestImports(t, testSupport...) {
		for _, pkg := range testSupport {
			if slices.Contains(f.imports, "dkindex/"+pkg) {
				t.Errorf("%s imports dkindex/%s, which only tests may import", f.path, pkg)
			}
		}
	}
}
