package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ExpandPatterns resolves go-tool-style package patterns against the
// module root into a deduplicated, sorted list of directories that
// contain Go files. Supported forms:
//
//	./...            every package in the module
//	./dir/...        every package under dir
//	./dir, dir       a single directory
//	module/path/dir  an import path inside the module
//
// Like the go tool, the recursive forms skip directories named
// "testdata" or "vendor" and hidden directories; naming such a
// directory explicitly still works, which is how the analyzer's own
// golden tests load their seeded-violation packages. A pattern that
// names no directory, or a recursive one under which no directory
// holds Go files, is an error, so a gate pointed at a mistyped or
// emptied subtree fails instead of passing with nothing checked.
func ExpandPatterns(root, module string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, orig := range patterns {
		pat := orig
		if module != "" {
			if pat == module {
				pat = "."
			} else if rest, ok := strings.CutPrefix(pat, module+"/"); ok {
				pat = "./" + rest
			}
		}
		recursive := false
		if pat == "..." || pat == "./..." {
			pat, recursive = ".", true
		} else if base, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = base, true
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(root, dir)
		}
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q does not match a directory", pat)
		}
		if !recursive {
			add(dir)
			continue
		}
		matched := false
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
				matched = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !matched {
			return nil, fmt.Errorf("analysis: pattern %q matched no packages", orig)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
