package autoadapt

// The size budget: every directory under internal/ and cmd/ has a line in
// testdata/loc_budget.txt giving its non-test Go lines, counted as `make loc`
// counts them. A directory over its line fails, and so does one more than
// locSlack lines under it, so each deletion ratchets the budget down. A
// directory that grows raises its line in the same change, with a reason.

import (
	"bufio"
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const locSlack = 20

func TestLocBudget(t *testing.T) {
	got := map[string]int{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			b, err := os.ReadFile(path)
			got[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(b, []byte("\n"))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	const file = "testdata/loc_budget.txt"
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	budget := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := append(strings.Fields(line), "") // dir, lines, then the reason for a raise
		lines, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Errorf("%s:%d: want \"<dir> <lines> [reason]\", got %q", file, n, line)
			continue
		}
		if _, dup := budget[fields[0]]; dup {
			t.Errorf("%s:%d: duplicate entry %s", file, n, fields[0])
		}
		budget[fields[0]] = lines
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for dir, n := range got {
		total += n
		b, ok := budget[dir]
		switch {
		case !ok:
			t.Errorf("%s: %d lines and no budget line in %s", dir, n, file)
		case n > b:
			t.Errorf("%s: %d lines, over its budget of %d: delete code, or raise the line with a reason", dir, n, b)
		case n < b-locSlack:
			t.Errorf("%s: %d lines, more than %d under its budget of %d: lower the line", dir, n, locSlack, b)
		}
	}
	for dir := range budget {
		if _, ok := got[dir]; !ok {
			t.Errorf("%s: budgeted in %s but holds no non-test Go file", dir, file)
		}
	}
	t.Logf("loc: %d non-test lines in %d directories under internal/ and cmd/", total, len(got))
}
