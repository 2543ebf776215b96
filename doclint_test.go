package repro

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// metricRegRe matches a family registration (or re-bind) with a literal
// name: reg.Counter("site_tasks_total", ...), including multi-line calls.
var metricRegRe = regexp.MustCompile(`\.(Counter|Gauge|Histogram|GaugeFunc)\(\s*"([a-z_][a-zA-Z0-9_:]*)"`)

// docMetricRowRe matches a metric family name in the first cell of a
// DESIGN.md table row: | `site_tasks_total` | counter | ... or
// | `site_quote_snapshot_quotes_total{site,path}` | ...
var docMetricRowRe = regexp.MustCompile("^\\|\\s*`((?:site|wire|broker|market)_[a-z0-9_]*)")

// TestMetricFamiliesDocumented greps every metric family name registered
// anywhere in the source tree and fails if DESIGN.md does not mention it,
// and fails if a DESIGN.md metric table lists a family no code registers.
// The scrape is a public interface: a family that ships undocumented is a
// dashboard nobody can build, and a documented family that no longer
// ships is a dashboard that silently stays empty.
func TestMetricFamiliesDocumented(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{} // family -> first file registering it
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricRegRe.FindAllSubmatch(src, -1) {
			name := string(m[2])
			if _, ok := seen[name]; !ok {
				seen[name] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("found no metric registrations — the scan regex is broken")
	}
	var missing []string
	for name, path := range seen {
		if !bytes.Contains(design, []byte(name)) {
			missing = append(missing, name+" (registered in "+path+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("metric family not documented in DESIGN.md: %s", m)
	}
	rows := 0
	for i, line := range bytes.Split(design, []byte("\n")) {
		m := docMetricRowRe.FindSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		if _, ok := seen[string(m[1])]; !ok {
			t.Errorf("DESIGN.md:%d documents metric family %s, which no code registers", i+1, m[1])
		}
	}
	if rows == 0 {
		t.Fatal("found no metric table rows in DESIGN.md — the row regex is broken")
	}
}

// lintedDocs are the documents whose quoted paths and identifiers must
// exist in the tree.
var lintedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// docPathRe matches a repo-root path under cmd/ or results/ wherever the
// docs quote one: `cmd/brokerd`, `go run ./cmd/siteserver -addr ...`,
// `results/fig3.csv`. A leading path component (benchmark/results/...)
// is somebody else's directory and does not match.
var docPathRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_/.-])(?:\./)?((?:cmd|results)/[A-Za-z0-9_*][A-Za-z0-9_.*-]*)`)

// TestDocPathsExist fails if one of lintedDocs quotes a command directory
// or a results file that is not on disk (globs must match at least one
// file). A deleted binary or result file must take its quick-start with it.
func TestDocPathsExist(t *testing.T) {
	checked := 0
	for _, doc := range lintedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(src, []byte("\n")) {
			for _, m := range docPathRe.FindAllSubmatch(line, -1) {
				path := strings.TrimRight(string(m[1]), ".")
				checked++
				// The only glob syntax docPathRe admits is '*', so the
				// pattern cannot be malformed.
				if hits, _ := filepath.Glob(path); len(hits) == 0 {
					t.Errorf("%s:%d: quotes %q, which does not exist", doc, i+1, path)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no cmd/ or results/ paths in the docs — the scan regex is broken")
	}
}

// docIdentRe matches a package-qualified exported Go name, `pkg.Name`, the
// way the docs quote one inside a code span: `wire.Server`,
// `core.PlanStarts(p, now, free, pending)`. Lower-case second halves are
// benchmark metric names (`wire.codec.bid_encode_ns`), not identifiers.
var docIdentRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)

// docCodeSpanRe matches one backticked code span.
var docCodeSpanRe = regexp.MustCompile("`[^`]+`")

// declaredNames parses the non-test Go files of one package directory and
// returns every name declared at the top level: funcs, methods, types,
// consts, and vars.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						names[sp.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocIdentifiersExist fails if one of lintedDocs quotes a `pkg.Name`
// whose pkg is a directory under internal/ but whose Name that
// package no longer declares. A deleted API must take its paragraph with
// it.
func TestDocIdentifiersExist(t *testing.T) {
	declared := map[string]map[string]bool{} // package -> names, parsed on first use
	checked := 0
	for _, doc := range lintedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(src, []byte("\n")) {
			for _, span := range docCodeSpanRe.FindAll(line, -1) {
				for _, m := range docIdentRe.FindAllSubmatch(span, -1) {
					pkg, name := string(m[1]), string(m[2])
					dir := filepath.Join("internal", pkg)
					if st, err := os.Stat(dir); err != nil || !st.IsDir() {
						continue // fmt.Errorf, json.Marshal, ...: not ours
					}
					if declared[pkg] == nil {
						declared[pkg] = declaredNames(t, dir)
					}
					checked++
					if !declared[pkg][name] {
						t.Errorf("%s:%d: quotes `%s.%s`, which internal/%s does not declare", doc, i+1, pkg, name, pkg)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no internal pkg.Name references in the docs — the scan regex is broken")
	}
}
