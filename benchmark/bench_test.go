package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram: BENCHMARK.json names the program's workloads
// with the program's reasons, and gives every end-to-end metric the bound
// the A/A self-check uses.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if m.Name != endToEnd[i].name || m.Bound != endToEnd[i].bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s bound %g, the program %s bound %g",
				i, m.Name, m.Bound, endToEnd[i].name, endToEnd[i].bound)
		}
	}
}

// runLine runs the program in-process and decodes its result line.
func runLine(t *testing.T, args ...string) (map[string]struct {
	Value float64
	Unit  string
}, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-out", t.TempDir()), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("aabench %v: exit code %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("aabench %v: last line is not the result: %v\n%s", args, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("aabench %v: correct %v, %d of %d ops failed", args, res.Correct, res.Failed, res.Attempted)
	}
	return res.Metrics, stdout.String()
}

// TestSmoke runs three short segments of every workload, untraced and
// traced: no op may fail, every goroutine must be gone afterwards (run
// checks both), and the result line must carry exactly the metrics
// BENCHMARK.json declares, in the declared units. No timing is asserted.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, sp := range specs {
		for trace, want := range map[string][]declared{"0": c.EndToEnd, "1": c.PerLayer} {
			got, out := runLine(t, "-workload", sp.name, "-seed", "7", "-segments", "3", "-ops", "60", "-trace", trace)
			if len(got) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, %d declared", sp.name, trace, len(got), len(want))
			}
			for _, m := range want {
				if g, ok := got[m.Name]; !ok {
					t.Errorf("%s trace %s: metric %s is declared but not printed", sp.name, trace, m.Name)
				} else if g.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s printed in %q, declared in %q", sp.name, trace, m.Name, g.Unit, m.Unit)
				}
			}
			if trace == "0" && !printsZeroFailRatio(out) {
				t.Errorf("%s: fail_ratio is not printed as 0:\n%s", sp.name, out)
			}
		}
	}
}

func printsZeroFailRatio(out string) bool {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "fail_ratio" {
			return f[1] == "0"
		}
	}
	return false
}

// TestOpStreamFollowsSeed: the op stream depends on the seed and on
// nothing else.
func TestOpStreamFollowsSeed(t *testing.T) {
	hashOf := func(sp *spec, seed int64) uint64 {
		w, err := sp.build(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if failed := w.segment(40, make([]time.Duration, 40)); failed != 0 {
			t.Errorf("%s seed %d: %d of 40 ops failed", sp.name, seed, failed)
		}
		return w.hash()
	}
	for i := range specs {
		sp := &specs[i]
		a, b, other := hashOf(sp, 7), hashOf(sp, 7), hashOf(sp, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave op-stream hashes %x and %x", sp.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same op-stream hash %x", sp.name, a)
		}
	}
}
