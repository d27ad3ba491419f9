package btreeperf_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// A citation names a document and then, within a few characters, one or
// more quoted section titles: `DESIGN.md "The buffer pool"`,
// `DESIGN.md §8 "The node"`, `EXPERIMENTS.md "Durability cost", "The
// commit pipeline" and "Every knob priced or deleted"`. Shell strings
// escape the quotes (`\"Reach audit\"`).
var (
	citeHead = regexp.MustCompile(`(?:^|[^/\w])(EXPERIMENTS|DESIGN|README)\.md[^"\pL]{0,6}?\\?"([^"\\\s,][^"\\]*)\\?"`)
	citeMore = regexp.MustCompile(`^(?:,\s*(?:and\s+)?|\s+and\s+)\\?"([^"\\]+)\\?"`)
	numbered = regexp.MustCompile(`^§?\d+(\.\d+)*\.?\s+`)
)

// docNames are the documents whose sections are cited and linked, each
// the name of a ".md" file at the root.
var docNames = []string{"EXPERIMENTS", "DESIGN", "README"}

// TestDocCitationsResolve checks that every section a file cites in
// EXPERIMENTS.md, DESIGN.md or README.md by its quoted title is still
// there: the title must begin a Markdown heading of that document (its
// "#"s and "§N." numbering aside) or a bold paragraph lead such as
// "**Who is in it.**". Renaming a cited heading fails it until every
// citation follows.
func TestDocCitationsResolve(t *testing.T) {
	targets := map[string][]string{}
	for _, doc := range docNames {
		targets[doc] = sectionTitles(t, doc+".md")
	}

	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := filepath.Glob("scripts/*")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, scripts...)
	files = append(files, "results/REACH.txt", ".github/workflows/ci.yml")
	for _, doc := range docNames {
		files = append(files, doc+".md")
	}

	cited := 0
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := joinLines(string(b))
		for _, m := range citeHead.FindAllStringSubmatchIndex(text, -1) {
			doc := text[m[2]:m[3]]
			titles := []string{text[m[4]:m[5]]}
			for rest := text[m[1]:]; ; {
				more := citeMore.FindStringSubmatchIndex(rest)
				if more == nil {
					break
				}
				titles = append(titles, rest[more[2]:more[3]])
				rest = rest[more[1]:]
			}
			for _, title := range titles {
				cited++
				if !begins(targets[doc], title) {
					t.Errorf("%s cites %s.md %q, which begins no heading or bold lead there", path, doc, title)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no citations; the pattern no longer matches the files")
	}
	t.Logf("%d citations in %d files checked", cited, len(files))
}

var (
	codeSpan  = regexp.MustCompile("`([^`]*)`")
	tableName = regexp.MustCompile(`^(?:(\w+)\.)?(\w+)(?:\(.*\))?$`)
)

// TestProtocolTableNamesResolve checks DESIGN.md "One protocol, three
// places": every name in code font in its `core`, `sim` and `cbtree`
// columns is a func or method declared in that package's non-test files,
// written as name or name(args); a package-qualified pkg.Name is declared
// at top level in internal/pkg. Abbreviations such as moveRightR/W fail.
func TestProtocolTableNamesResolve(t *testing.T) {
	const doc, heading = "DESIGN.md", "### One protocol, three places\n"
	b, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), heading)
	if !ok {
		t.Fatalf("%s has no %q heading", doc, heading)
	}
	section, _, _ = strings.Cut(section, "\n#")
	var cols map[int]string // column index → package
	checked := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if cols == nil {
			cols = map[int]string{}
			for i, c := range cells {
				if pkg := strings.Trim(strings.TrimSpace(c), "`"); pkg == "core" || pkg == "sim" || pkg == "cbtree" {
					cols[i] = pkg
				}
			}
			if len(cols) != 3 {
				t.Fatalf("table header %q lacks a core, sim or cbtree column", line)
			}
			continue
		}
		for i, pkg := range cols {
			for _, m := range codeSpan.FindAllStringSubmatch(cells[i], -1) {
				checked++
				n := tableName.FindStringSubmatch(m[1])
				switch {
				case n == nil:
					t.Errorf("%s column: %q is not written as name, name(args) or pkg.Name", pkg, m[1])
				case n[1] != "":
					if !goDecls(t, n[1])[n[2]] {
						t.Errorf("%s column: %s is declared in no non-test file of internal/%s", pkg, m[1], n[1])
					}
				case !goFuncs(t, pkg)[n[2]]:
					t.Errorf("%s column: %s is no func or method of internal/%s", pkg, n[2], pkg)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no names in the table")
	}
	t.Logf("%d names checked", checked)
}

// goFuncs returns the funcs and methods declared in internal/pkg's
// non-test files.
func goFuncs(t *testing.T, pkg string) map[string]bool {
	names := map[string]bool{}
	for _, f := range parsePackage(t, pkg) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				names[fd.Name.Name] = true
			}
		}
	}
	return names
}

// goDecls returns every top-level name declared in internal/pkg's
// non-test files: funcs, methods, types, vars and consts.
func goDecls(t *testing.T, pkg string) map[string]bool {
	names := goFuncs(t, pkg)
	for _, f := range parsePackage(t, pkg) {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names
}

func parsePackage(t *testing.T, pkg string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("internal/%s: no Go files (%v)", pkg, err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

var anchorLink = regexp.MustCompile(`\]\(((?:EXPERIMENTS|DESIGN|README)\.md)?#([^)\s]+)\)`)

// TestDocAnchorsResolve checks that every link to a section of one of
// the three documents, [text](#anchor) inside it or [text](DESIGN.md#anchor)
// from another, names the anchor a Markdown renderer gives one of that
// document's headings.
func TestDocAnchorsResolve(t *testing.T) {
	var docs []string
	for _, doc := range docNames {
		docs = append(docs, doc+".md")
	}
	anchors := map[string]map[string]bool{}
	for _, doc := range docs {
		heads, _ := markdownSections(t, doc)
		anchors[doc] = map[string]bool{}
		seen := map[string]int{}
		for _, h := range heads {
			a := slug(h)
			if n := seen[a]; n > 0 {
				anchors[doc][fmt.Sprintf("%s-%d", a, n)] = true
			} else {
				anchors[doc][a] = true
			}
			seen[a]++
		}
	}
	linked := 0
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range anchorLink.FindAllStringSubmatch(string(b), -1) {
			target := m[1]
			if target == "" {
				target = doc
			}
			linked++
			if !anchors[target][m[2]] {
				t.Errorf("%s links to %s#%s, which is no heading's anchor there", doc, target, m[2])
			}
		}
	}
	t.Logf("%d section links checked", linked)
}

// slug is the anchor GitHub gives a heading: lower case, spaces as
// hyphens, and every character but letters, digits, marks, "-" and "_"
// dropped (so backticks, punctuation and "§" go).
func slug(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) || unicode.IsMark(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// joinLines makes one line of a file, so that a citation wrapped across
// comment or paragraph lines reads as written: each line loses its
// indentation and any leading comment marker ("//" or "#") before the
// lines are joined with single spaces.
func joinLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		l = strings.TrimSpace(l)
		if strings.HasPrefix(l, "//") {
			l = strings.TrimPrefix(l, "//")
		} else {
			l = strings.TrimLeft(l, "#")
		}
		lines[i] = strings.TrimSpace(l)
	}
	return strings.Join(lines, " ")
}

// sectionTitles lists a Markdown file's headings, without their "#"s and
// numbering, and the bold text that opens a paragraph.
func sectionTitles(t *testing.T, path string) []string {
	heads, leads := markdownSections(t, path)
	var titles []string
	for _, h := range heads {
		titles = append(titles, numbered.ReplaceAllString(h, ""))
	}
	return append(titles, leads...)
}

// markdownSections returns a Markdown file's headings, without their
// "#"s, and the bold text that opens a paragraph, skipping fenced code.
func markdownSections(t *testing.T, path string) (heads, leads []string) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fenced := false
	for _, l := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(l, "```"):
			fenced = !fenced
		case fenced:
		case strings.HasPrefix(l, "#"):
			heads = append(heads, strings.TrimSpace(strings.TrimLeft(l, "#")))
		case strings.HasPrefix(l, "**"):
			lead, _, _ := strings.Cut(l[2:], "**")
			leads = append(leads, lead)
		}
	}
	return heads, leads
}

func begins(titles []string, title string) bool {
	for _, h := range titles {
		if strings.HasPrefix(h, title) {
			return true
		}
	}
	return false
}
