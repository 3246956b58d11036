package dkindex

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNothingServesTheShardEngine pins the retirement of sharded serving by
// reading the source: internal/shard is kept only for the benchmark module's
// fan-out probe, so no non-test .go file of this module outside that package
// may import it. A command, server or facade that wires the engine back in
// fails here by name. The benchmark module (its own go.mod) and hidden
// directories are not this module and are skipped.
func TestNothingServesTheShardEngine(t *testing.T) {
	const engine = "dkindex/internal/shard"
	parsed := 0
	var importers []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || filepath.ToSlash(path) == "internal/shard" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		parsed++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == engine {
				importers = append(importers, filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 50 {
		t.Fatalf("parsed only %d non-test files; the walk missed the module", parsed)
	}
	for _, path := range importers {
		t.Errorf("%s imports %s, which is kept only for benchmark/probes.go", path, engine)
	}
}
