package dkindex

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists holds the prose to the tree: README.md,
// DESIGN.md, EXPERIMENTS.md, the verify skill and the comments of the root
// package's .go files may name a `make <target>` only if the Makefile's
// .PHONY line lists it, a BENCH_* file only if it is in the repository, a
// `dkbench -exp <id>` only if cmd/dkbench's experiment table has it, a flag
// on a dkserve command line only if cmd/dkserve declares it with
// fs.<Type>("name", …), and a full dk_* metric name in a code span only if it
// is a row of the metric table in internal/obs (wildcards such as dk_repl_*
// name no family). CHANGES.md and ROADMAP.md are history and exempt.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	submatches := func(pattern, text string) map[string]bool {
		set := map[string]bool{}
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(text, -1) {
			set[m[1]] = true
		}
		return set
	}
	finder := func(pattern string) func(string) map[string]bool {
		return func(text string) map[string]bool { return submatches(pattern, text) }
	}

	targets := map[string]bool{}
	for _, line := range strings.Split(read("Makefile"), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, name := range strings.Fields(rest) {
				targets[name] = true
			}
		}
	}
	// The table's rows open with their id: {"fig4", "Figure 4: ...
	ids := submatches(`(?m)^\t\{"([a-z0-9-]+)", "`, read("cmd/dkbench/main.go"))
	ids["all"] = true
	files := map[string]bool{}
	recorded, err := filepath.Glob("BENCH_*")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range recorded {
		files[name] = true
	}
	// Flags: fs.Int("name", …) or fs.IntVar(&v, "name", …).
	declared := `\bfs\.[A-Z][A-Za-z0-9]*\((?:&[\w.]+,\s*)?"([a-z][a-z0-9-]*)"`
	serveFlags := submatches(declared, read("cmd/dkserve/main.go"))
	// The table's rows open with their type and name: row(CounterType,
	// "dk_queries_total", …. A histogram's series add _bucket, _sum, _count.
	families := map[string]bool{}
	for _, m := range regexp.MustCompile(`\brow\((\w+)Type, "(dk_[a-z0-9_]+)"`).FindAllStringSubmatch(read("internal/obs/table.go"), -1) {
		families[m[2]] = true
		if m[1] == "Histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				families[m[2]+suffix] = true
			}
		}
	}
	if len(targets) == 0 || len(ids) < 2 || len(files) == 0 || len(serveFlags) < 10 || len(families) < 50 {
		t.Fatalf("nothing to check against: %d make targets, %d experiment ids, %d BENCH_ files, %d dkserve flags, %d metric families",
			len(targets), len(ids), len(files), len(serveFlags), len(families))
	}
	// A dkserve command line runs to the end of its code span or line, and on
	// past a trailing backslash.
	serveLine := regexp.MustCompile(`\bdkserve((?:[ \t]+(?:\\\n[ \t]*)?[^\s` + "`" + `|]+)*)`)
	serveArgs := func(text string) map[string]bool {
		set := map[string]bool{}
		for _, m := range serveLine.FindAllStringSubmatch(text, -1) {
			for flag := range submatches(`(?:^|\s)-([a-z][a-z0-9-]*)`, m[1]) {
				set[flag] = true
			}
		}
		return set
	}

	// A metric name is full when it ends in a letter or digit and no * follows;
	// a fenced code block counts as a code span.
	metricNames := func(text string) map[string]bool {
		set := map[string]bool{}
		for _, span := range regexp.MustCompile("`[^`]*`").FindAllString(text, -1) {
			for name := range submatches(`\b(dk_[a-z0-9_]*[a-z0-9])(?:[^a-z0-9_*]|$)`, span) {
				set[name] = true
			}
		}
		return set
	}

	// Every mention in these files opens a code span or sits in a code block;
	// a line break may fall between the command and its argument.
	checks := []struct {
		what   string
		find   func(text string) map[string]bool
		exists map[string]bool
	}{
		{"make target", finder("`make\\s+([a-z][a-z0-9-]*)"), targets},
		{"dkbench experiment", finder(`-exp\s+([a-z][a-z0-9-]*)`), ids},
		{"recorded file", finder(`\b(BENCH_[A-Za-z0-9_]+(?:\.[a-z]+)?)`), files},
		{"dkserve flag", serveArgs, serveFlags},
		{"metric family", metricNames, families},
	}
	texts := map[string]string{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		texts[doc] = read(doc)
	}
	sources, err := filepath.Glob("*.go")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no Go files in the root package: %v", err)
	}
	for _, name := range sources {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var comments strings.Builder
		for _, c := range f.Comments {
			comments.WriteString(c.Text())
		}
		texts[name] = comments.String()
	}
	for doc, text := range texts {
		for _, check := range checks {
			for name := range check.find(text) {
				if !check.exists[name] {
					t.Errorf("%s names the %s %q, which does not exist", doc, check.what, name)
				}
			}
		}
	}
}

// TestArchitectureTableMatchesTree holds README.md's architecture table to
// the tree: every row under internal/ and every name on the examples/ row
// must be a directory, and every directory directly under internal/ or
// examples/ must have its row or name.
func TestArchitectureTableMatchesTree(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "## Architecture\n\n```\n")
	table, _, closed := strings.Cut(rest, "\n```")
	if !ok || !closed {
		t.Fatal("README.md has no fenced block under ## Architecture")
	}
	listed := map[string]map[string]bool{"internal": {}, "examples": {}}
	section := ""
	for _, line := range strings.Split(table, "\n") {
		switch {
		case strings.HasPrefix(line, "internal/"):
			section = "internal"
		case strings.HasPrefix(line, "examples/"):
			for _, name := range strings.Split(strings.TrimSpace(strings.TrimPrefix(line, "examples/")), ",") {
				listed["examples"][strings.TrimSpace(name)] = true
			}
			section = ""
		case section == "internal" && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   "):
			listed["internal"][strings.Fields(line)[0]] = true
		case !strings.HasPrefix(line, " "):
			section = ""
		}
	}
	for dir, names := range listed {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		present := map[string]bool{}
		for _, e := range entries {
			if e.IsDir() {
				present[e.Name()] = true
				if !names[e.Name()] {
					t.Errorf("%s/%s has no row in README.md's architecture table", dir, e.Name())
				}
			}
		}
		if len(present) == 0 {
			t.Fatalf("no directories under %s/", dir)
		}
		for name := range names {
			if !present[name] {
				t.Errorf("README.md's architecture table lists %s/%s, which does not exist", dir, name)
			}
		}
	}
}

// TestMakeRecipesNameRealTests holds `make fuzz-smoke` and `make stress` to
// the tests they name. go test passes silently when -fuzz or -run matches
// nothing, so every -fuzz NAME and every name of a -run 'A|B' alternation
// ('^$' aside) must be declared as func NAME( in a _test.go file of the
// package the line tests.
func TestMakeRecipesNameRealTests(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	declared := func(pkg string) map[string]bool {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range regexp.MustCompile(`(?m)^func (\w+)\(`).FindAllStringSubmatch(string(src), -1) {
				set[m[1]] = true
			}
		}
		return set
	}
	recipe, checked := "", 0
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			recipe, _, _ = strings.Cut(line, ":")
			continue
		}
		if recipe != "fuzz-smoke" && recipe != "stress" {
			continue
		}
		fields := strings.Fields(line)
		var names []string
		for i := 0; i+1 < len(fields); i++ {
			switch arg := strings.Trim(fields[i+1], "'"); fields[i] {
			case "-fuzz":
				names = append(names, arg)
			case "-run":
				if arg != "^$$" {
					names = append(names, strings.Split(arg, "|")...)
				}
			}
		}
		pkg := fields[len(fields)-1]
		funcs := declared(pkg)
		for _, name := range names {
			checked++
			if !funcs[name] {
				t.Errorf("make %s runs %s in %s, which declares no such test", recipe, name, pkg)
			}
		}
	}
	if checked < 15 {
		t.Fatalf("only %d test names found in the fuzz-smoke and stress recipes", checked)
	}
}
