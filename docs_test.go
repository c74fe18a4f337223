package midquery

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs point at DESIGN.md's numbered sections and at test functions
// by name; a renumbered section or a renamed test leaves the pointer
// dangling without anything failing. TestDocReferences makes it fail:
// every "DESIGN.md §N" (or "DESIGN §N") in the three docs and in
// non-test Go files names a "## N." heading of DESIGN.md, and every
// backticked Test…, Fuzz… or Benchmark… name in the docs is a function
// of some _test.go file.
func TestDocReferences(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	text := map[string]string{}
	for _, d := range docs {
		b, err := os.ReadFile(d)
		if err != nil {
			t.Fatal(err)
		}
		text[d] = string(b)
	}

	testFuncs := map[string]bool{}
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var goFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range funcRe.FindAllStringSubmatch(string(b), -1) {
				testFuncs[m[1]] = true
			}
		} else {
			goFiles = append(goFiles, path)
			text[path] = string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(text["DESIGN.md"], -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}

	sectionRe := regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	for _, f := range append(docs, goFiles...) {
		for _, m := range sectionRe.FindAllStringSubmatch(text[f], -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites %q: DESIGN.md has no section %s", f, m[0], m[1])
			}
		}
	}

	// Go requires the character after the prefix not to be lower case,
	// which also keeps method names like `Test` out.
	nameRe := regexp.MustCompile("`(?:[\\w/]+\\.)?((?:Test|Fuzz|Benchmark)[A-Z0-9_]\\w*)`")
	for _, d := range docs {
		for _, m := range nameRe.FindAllStringSubmatch(text[d], -1) {
			if !testFuncs[m[1]] {
				t.Errorf("%s names %s, which no _test.go file defines", d, m[1])
			}
		}
	}
}
