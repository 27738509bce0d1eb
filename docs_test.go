package msgroofline

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The docs tests hold DESIGN.md and README.md to the tree: a name,
// test, section or CI gate they cite must exist. Each reads the files
// as text and the Go source with go/parser, so none of them builds or
// runs the code it checks.

// walkRepo calls fn with the path of every file in the repository,
// skipping hidden directories (.git, .github, .claude).
func walkRepo(fn func(path string) error) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		return fn(path)
	})
}

// readDoc returns the contents of a file at the repository root.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// pkgDecls is what a package declares: its top-level names, the
// members (methods and fields) of each of its types, and every method
// name whatever its receiver.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
	methods map[string]bool
}

// parseDecls parses the non-test Go files of dirs into one pkgDecls.
func parseDecls(t *testing.T, dirs ...string) *pkgDecls {
	t.Helper()
	d := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, methods: map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	fields := func(typ string, list *ast.FieldList) {
		for _, f := range list.List {
			for _, n := range f.Names {
				member(typ, n.Name)
			}
		}
	}
	var files []string
	for _, dir := range dirs {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %v", dirs)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
					continue
				}
				d.methods[decl.Name.Name] = true
				e := decl.Recv.List[0].Type
				if s, ok := e.(*ast.StarExpr); ok {
					e = s.X
				}
				if id, ok := e.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						d.top[s.Name.Name] = true
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields(s.Name.Name, ty.Fields)
						case *ast.InterfaceType:
							fields(s.Name.Name, ty.Methods)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							d.top[n.Name] = true
						}
					}
				}
			}
		}
	}
	return d
}

// resolves reports whether the dotted name rest ("Name" or
// "Type.Member") is declared in d. A method may be cited without its
// type.
func (d *pkgDecls) resolves(rest string) bool {
	typ, member, dotted := strings.Cut(rest, ".")
	if !dotted {
		return d.top[rest] || d.methods[rest]
	}
	return d.members[typ][member]
}

var (
	// codeName matches a dotted Go name, pkg.Name or pkg.Type.Member,
	// that is not part of a path or a longer dotted name.
	codeName = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)\b`)
	// memberName matches Type.Member cited without its package.
	memberName = regexp.MustCompile(`(?:^|[^\w./])([A-Z]\w*\.[A-Za-z_]\w*)\b`)
	// camelName matches a code span that is one lower-camelCase name,
	// such as sortRun.
	camelName = regexp.MustCompile(`^[a-z][a-z0-9]*[A-Z]\w*$`)
)

// TestDocsNameCode checks the Go names that DESIGN.md and README.md
// cite in backticks. A pkg.Name or pkg.Type.Member whose pkg is a
// package directory under internal/ must be declared by that package;
// runtime.X may also name Go's own runtime package. A Type.Member
// without its package, or a span that is one lower-camelCase name,
// must be declared by some package under internal/. Benchmark metric
// names (those BENCHMARK.json lists, and any dotted name with an
// underscore) and the names of files in the repository are not
// identifiers and are skipped. A synthetic line citing names the tree
// does not declare must fail the check.
func TestDocsNameCode(t *testing.T) {
	dirs := map[string]string{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			dirs[d.Name()] = path
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, "BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	metric := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metric[m.Name] = true
	}
	decls := map[string]*pkgDecls{}
	var goRuntime *pkgDecls
	paths := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		paths = append(paths, dir)
	}
	union := parseDecls(t, paths...)
	backticked := regexp.MustCompile("`[^`\n]+`")
	checked := 0
	// unresolved returns a complaint for each name text cites that the
	// tree does not declare.
	unresolved := func(text string) (bad []string) {
		for _, span := range backticked.FindAllString(text, -1) {
			code := strings.Trim(span, "`")
			for _, m := range codeName.FindAllStringSubmatch(code, -1) {
				pkg, rest := m[1], m[2]
				name := pkg + "." + rest
				dir, ok := dirs[pkg]
				if !ok || metric[name] || strings.Contains(name, "_") {
					continue
				}
				if decls[pkg] == nil {
					decls[pkg] = parseDecls(t, dir)
				}
				checked++
				if decls[pkg].resolves(rest) {
					continue
				}
				if pkg == "runtime" {
					if goRuntime == nil {
						goRuntime = parseDecls(t, filepath.Join(build.Default.GOROOT, "src", "runtime"))
					}
					if goRuntime.resolves(rest) {
						continue
					}
				}
				bad = append(bad, fmt.Sprintf("`%s`, which package %s does not declare", name, dir))
			}
			var names []string
			for _, m := range memberName.FindAllStringSubmatch(code, -1) {
				names = append(names, m[1])
			}
			if camelName.MatchString(code) {
				names = append(names, code)
			}
			for _, name := range names {
				if _, err := os.Stat(name); err == nil || strings.Contains(name, "_") {
					continue
				}
				checked++
				if !union.resolves(name) {
					bad = append(bad, fmt.Sprintf("`%s`, which no package under internal/ declares", name))
				}
			}
		}
		return bad
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, b := range unresolved(readDoc(t, doc)) {
			t.Errorf("%s cites %s", doc, b)
		}
	}
	if checked == 0 {
		t.Fatal("found no backticked code names in DESIGN.md or README.md")
	}
	if bad := unresolved("a cutoff `parDeliveryMin` and `CoupledEngine.ParDeliveries`"); len(bad) != 2 {
		t.Errorf("a line citing two undeclared names got %d complaints, want 2: %q", len(bad), bad)
	}
}

// TestDocsNameTests checks that every Test, Benchmark or Fuzz name
// DESIGN.md or README.md cites is a test function, or the prefix of
// one (a -run pattern such as TestCoupled), in some _test.go file.
func TestDocsNameTests(t *testing.T) {
	var funcs []string
	fset := token.NewFileSet()
	err := walkRepo(func(path string) error {
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	n := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, name := range cited.FindAllString(readDoc(t, doc), -1) {
			n++
			found := false
			for _, fn := range funcs {
				found = found || strings.HasPrefix(fn, name)
			}
			if !found {
				t.Errorf("%s cites %s, which starts no test function", doc, name)
			}
		}
	}
	if n == 0 {
		t.Fatal("found no test names in DESIGN.md or README.md")
	}
}

// rootDocs are the Markdown files at the repository root that describe
// the code. The others there hold history, plans and the paper's own
// text, whose section signs are not DESIGN.md citations.
var rootDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true}

// TestDocsSectionCitations checks that every Arabic-numeral §N in the
// Go files, the CI workflow, the verify skill, the root docs and every
// Markdown file below the root is a "## N." heading of DESIGN.md. The
// paper's own sections are Roman (§II, §V), so they never match.
func TestDocsSectionCitations(t *testing.T) {
	heads := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		heads[m[1]] = true
	}
	if len(heads) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	files := []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	err := walkRepo(func(path string) error {
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md") && (rootDocs[path] || strings.Contains(path, "/")) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`§(\d+)`)
	for _, path := range files {
		for i, line := range strings.Split(readDoc(t, path), "\n") {
			for _, m := range cite.FindAllStringSubmatch(line, -1) {
				if !heads[m[1]] {
					t.Errorf("%s:%d cites §%s, which is not a section of DESIGN.md", path, i+1, m[1])
				}
			}
		}
	}
}

// TestDocsRSSGates checks the peak-RSS gates: each ci.yml step named
// "... peak RSS under N MB" must compare against N×1024 KB, and every
// "above N MB" bound README.md or DESIGN.md quotes must be one of
// those gates.
func TestDocsRSSGates(t *testing.T) {
	gates := map[string]bool{}
	steps := regexp.MustCompile(`\n      - name: `).Split(readDoc(t, ".github/workflows/ci.yml"), -1)
	gateName := regexp.MustCompile(`^.*peak RSS under (\d+) MB\n`)
	for _, step := range steps {
		m := gateName.FindStringSubmatch(step)
		if m == nil {
			continue
		}
		mb, _ := strconv.Atoi(m[1])
		bound := regexp.MustCompile(`-le (\d+)`).FindAllStringSubmatch(step, -1)
		if len(bound) != 1 || bound[0][1] != strconv.Itoa(mb*1024) {
			t.Errorf("ci.yml step %q: want one bound -le %d, found %v", strings.TrimSpace(m[0]), mb*1024, bound)
		}
		gates[m[1]] = true
	}
	if len(gates) == 0 {
		t.Fatal("ci.yml has no peak RSS gates")
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, m := range regexp.MustCompile(`above\s+(\d+)\s+MB`).FindAllStringSubmatch(readDoc(t, doc), -1) {
			if !gates[m[1]] {
				t.Errorf("%s quotes an RSS bound of %s MB, which no ci.yml gate holds", doc, m[1])
			}
		}
	}
}

// TestDocsPackageMap checks that README.md's internal/ map lists every
// directory under internal/ exactly once, and nothing else.
func TestDocsPackageMap(t *testing.T) {
	readme := readDoc(t, "README.md")
	_, rest, ok := strings.Cut(readme, "\ninternal/\n")
	if !ok {
		t.Fatal("README.md has no internal/ package map")
	}
	count := map[string]int{}
	entry := regexp.MustCompile(`^  (\S+)`)
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, " ") {
			break
		}
		if m := entry.FindStringSubmatch(line); m != nil {
			count[m[1]]++
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && count[e.Name()] != 1 {
			t.Errorf("README.md's package map lists internal/%s %d times, want once", e.Name(), count[e.Name()])
		}
		delete(count, e.Name())
	}
	var extra []string
	for name := range count {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		t.Errorf("README.md's package map lists %s, which is not a directory under internal/", name)
	}
}
