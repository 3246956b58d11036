//go:build unlinked

package dkindex

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// unlinkedAllowed names every production function that no binary links,
// keyed by package and symbol, with the tests that read it or the reason it
// stays. A function missing from here fails TestEveryFunctionIsLinked:
// delete it, or add it with its readers. An entry whose function is linked
// again or gone fails too, and so does a named test that does not exist or
// does not mention the function.
var unlinkedAllowed = map[string]string{
	"dkindex (*Index).ResultCacheLen":          "TestResultCacheHit TestFullCacheMissKeepsNothing",
	"dkindex (*Store).ReplStatus":              "TestReplicaConvergesUnderFaults TestReplicaCatchUpCrashSweep",
	"internal/datagen (*DTD).ElementNames":     "TestNASADTDValid",
	"internal/graph (*Graph).Validate":         "TestValidateCatchesNothingOnGoodGraph TestQuickFromCSRMatchesIncremental",
	"internal/graph TinyCycle":                 "TestEvalStarOnCycle TestBisimulationOnCycle TestTwigOnCycle",
	"internal/obs (*Histogram).Count":          "TestCounterGaugeHistogramBasics TestREDMetrics",
	"internal/partition (*Partition).Clone":    "TestCloneIndependence TestCloneIndependentBacking",
	"internal/partition (*Partition).Validate": "TestNewByLabelGroupsByLabel TestQuickRefinerMatchesReference",
	"internal/qcache (*Cache).Capacity":        "TestDisabledAndNil",
	"internal/replica (*Replica).Applied":      "TestReplicaConvergesUnderFaults TestFrameThatFailsToReplay",
	"internal/replica (*Replica).Stale":        "TestReplicaBoundedLagAndStaleness",
	"internal/rpe (*NFA).MatchesEmpty":         "TestNFAMatchesEmpty FuzzKernelAgainstReference",
	"internal/rpe (*NFA).NumStates":            "TestParseBoundsExpressionSize",
	"internal/rpe Label.isExpr":                "marker method: it seals the Expr interface and is never called",
	"internal/rpe Wildcard.isExpr":             "marker method: it seals the Expr interface and is never called",
	"internal/rpe Seq.isExpr":                  "marker method: it seals the Expr interface and is never called",
	"internal/rpe Alt.isExpr":                  "marker method: it seals the Expr interface and is never called",
	"internal/rpe Opt.isExpr":                  "marker method: it seals the Expr interface and is never called",
	"internal/rpe Star.isExpr":                 "marker method: it seals the Expr interface and is never called",
	"internal/shard (*Engine).Map":             "TestMergedBitIdentity TestBatchSplitsAcrossShards",
	"internal/shard (*Engine).NumShards":       "TestShardConcurrentReadersWriters",
	"internal/shard (*Map).NextShard":          "TestCacheWarmthAcrossShards TestBatchSplitsAcrossShards",
	"internal/shard (*Map).NumShards":          "TestShardConcurrentReadersWriters",
	"internal/wal (*Writer).Broken":            "TestWriterBreaksWhenRollbackFails TestFailedAppendRollsBack",
	"internal/wal (*Writer).Seq":               "TestAppendGroupRoundTrip TestFailedGroupAppendRollsBack",
	"internal/workload (*Recorder).Total":      "TestRecorder TestRecorderConcurrent",
	"internal/workload (*Workload).Format":     "TestFormatRoundTrip TestGenerateDeterministic",
	"internal/xmlgraph (*Elem).CountNodes":     "TestElemWriteAndRoundTrip TestXMarkScaleApproximation",
}

// TestEveryFunctionIsLinked builds every command, every example and the
// benchmark module with inlining off, reads the function symbols the linker
// kept with `go tool nm`, and fails on any production function declaration
// (read with go/parser, the test-support packages left out) that none of
// them links and unlinkedAllowed does not name. Run it with `make unlinked`;
// tier 1 never builds this file.
func TestEveryFunctionIsLinked(t *testing.T) {
	linked := linkedSymbols(t)
	decls, reads := sourceFuncs(t)
	declared := map[string]bool{}
	unlinked, lines := 0, 0
	for _, d := range decls {
		declared[d.key] = true
		by, ok := unlinkedAllowed[d.key]
		if linked[d.sym] || linked[d.ptrSym] {
			if ok {
				t.Errorf("%s is linked now; delete its unlinkedAllowed entry", d.key)
			}
			continue
		}
		unlinked++
		lines += d.lines
		if !ok {
			t.Errorf("%s (%s, %d lines) is linked by no binary: delete it, or add it to unlinkedAllowed with the tests that read it",
				d.key, d.pos, d.lines)
			continue
		}
		// A test named as a reader must exist and mention the function.
		name := d.key[strings.LastIndexAny(d.key, " .")+1:]
		for _, word := range strings.Fields(by) {
			if !strings.HasPrefix(word, "Test") && !strings.HasPrefix(word, "Fuzz") {
				break // a reason, not a list of readers
			}
			if names, ok := reads[word]; !ok {
				t.Errorf("unlinkedAllowed names %s as a reader of %s; no such test", word, d.key)
			} else if !names[name] {
				t.Errorf("unlinkedAllowed names %s as a reader of %s; it does not mention %s", word, d.key, name)
			}
		}
	}
	for key := range unlinkedAllowed {
		if !declared[key] {
			t.Errorf("unlinkedAllowed names %s, which is not declared", key)
		}
	}
	t.Logf("%d production functions, %d linked by no binary (%d lines with their doc comments), %d allowed",
		len(decls), unlinked, lines, len(unlinkedAllowed))
}

// linkedSymbols builds every binary into a scratch directory and returns the
// text symbols the linker kept, type arguments dropped. Symbols of package
// main are renamed to the directory the binary was built from; the
// benchmark's own main is not this module's code and is left out.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := t.TempDir()
	for _, b := range []struct{ dir, pkgs string }{{".", "./cmd/... ./examples/..."}, {"benchmark", "."}} {
		cmd := exec.Command(goCmd, append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, strings.Fields(b.pkgs)...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s in %s: %v\n%s", b.pkgs, b.dir, err, out)
		}
	}
	mains := map[string]string{"benchmark": ""}
	dirs, err := filepath.Glob("*/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		d = filepath.ToSlash(filepath.Dir(d))
		if strings.HasPrefix(d, "cmd/") || strings.HasPrefix(d, "examples/") {
			mains[path.Base(d)] = "dkindex/" + d
		}
	}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != len(mains) {
		t.Fatalf("built %d binaries, want %d (%v)", len(bins), len(mains), mains)
	}
	linked := map[string]bool{}
	for _, b := range bins {
		main, ok := mains[b.Name()]
		if !ok {
			t.Fatalf("built %s, which is no command, example or benchmark", b.Name())
		}
		out, err := exec.Command(goCmd, "tool", "nm", filepath.Join(bin, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || f[1] != "T" && f[1] != "t" {
				continue
			}
			sym := stripTypeArgs(strings.Join(f[2:], " "))
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				if main == "" {
					continue
				}
				sym = main + "." + rest
			}
			linked[sym] = true
		}
	}
	return linked
}

// funcDecl is one production function declaration: its allowlist key (the
// package directory, "dkindex" for the root, then the symbol's tail), the
// symbol the linker gives it, for a value method also the symbol of its
// pointer wrapper, and its position and length in lines with its doc
// comment.
type funcDecl struct {
	key, sym, ptrSym string
	pos              string
	lines            int
}

// sourceFuncs parses every .go file of this module outside the test-support
// packages. It returns the function declarations of the non-test files (with
// a body, init excepted) and, for every test, fuzz target and helper of the
// test files, the names its body mentions.
func sourceFuncs(t *testing.T) ([]funcDecl, map[string]map[string]bool) {
	t.Helper()
	var decls []funcDecl
	reads := map[string]map[string]bool{}
	fset := token.NewFileSet()
	walkSources(t, testSupport, func(file string) error {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := path.Dir(file)
		pkg := "dkindex"
		if dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(file, "_test.go") {
				names := reads[fn.Name.Name]
				if names == nil {
					names = map[string]bool{}
					reads[fn.Name.Name] = names
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						names[id.Name] = true
					}
					return true
				})
				continue
			}
			if fn.Recv == nil && fn.Name.Name == "init" {
				continue
			}
			d := funcDecl{sym: fn.Name.Name}
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				star, ptr := typ.(*ast.StarExpr)
				if ptr {
					typ = star.X
				}
				switch e := typ.(type) { // a generic receiver: Paged[T]
				case *ast.IndexExpr:
					typ = e.X
				case *ast.IndexListExpr:
					typ = e.X
				}
				recv := typ.(*ast.Ident).Name
				if ptr {
					d.sym = "(*" + recv + ")." + fn.Name.Name
				} else {
					d.sym, d.ptrSym = recv+"."+fn.Name.Name, pkg+".(*"+recv+")."+fn.Name.Name
				}
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			d.key = strings.TrimPrefix(pkg, "dkindex/") + " " + d.sym
			d.sym = pkg + "." + d.sym
			d.pos = fset.Position(fn.Pos()).String()
			d.lines = fset.Position(fn.End()).Line - fset.Position(start).Line + 1
			decls = append(decls, d)
		}
		return nil
	})
	if len(decls) < 500 {
		t.Fatalf("parsed only %d functions; the walk missed the module", len(decls))
	}
	return decls, reads
}

// stripTypeArgs drops every bracketed part of a symbol, so that an
// instantiation (cow.(*Paged[go.shape.int32]).At) reads as its declaration
// (cow.(*Paged).At).
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
