package fademl

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRef matches an upper-case markdown file name such as ARCHITECTURE.md
// or FILTERS.md, the way Go code and comments cite a document.
var docRef = regexp.MustCompile(`\b[A-Z][A-Z0-9_]*\.md\b`)

// TestDocReferencesExist fails when a .go file names a markdown document
// that is neither beside it nor at the repository root, so a comment
// never points a reader at a document that does not exist.
func TestDocReferencesExist(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range docRef.FindAllString(string(src), -1) {
			if !exists(filepath.Join(filepath.Dir(path), name)) && !exists(name) {
				t.Errorf("%s names %s, which does not exist", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
