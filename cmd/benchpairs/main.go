// Command benchpairs measures a change against a parent commit with the
// repository benchmark (BENCHMARK.json, benchmark/run.sh), the way the
// choosing-metrics rules ask for a claim to be measured: pairs of runs, the
// same seed within a pair, the side that runs first alternating from pair to
// pair, medians and quartiles per workload and metric. It is the engine
// behind `make aabench-pairs`.
//
//	benchpairs -parent <ref> -pairs 10 -seconds 20 -seed 2301 -o BENCH_23.json
//
// The parent is built from `git archive <ref>` unpacked into a temporary
// directory, so neither the working tree nor the repository's metadata is
// touched; the change is the working tree as it stands. Nothing is fetched.
// The summary table goes to standard output and the -o file holds the
// summary and every run's result line, in the schema of BENCH_21.json.
// Exit status 1 means a run failed or reported an incorrect result.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// resultLine is the JSON line aabench ends its output with.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type pairRun struct {
	Seed   int64       `json:"seed"`
	First  string      `json:"first"`
	Parent *resultLine `json:"parent"`
	Change *resultLine `json:"change"`
}

type metricSummary struct {
	Unit             string  `json:"unit"`
	ParentMedian     float64 `json:"parent_median"`
	ParentQ1         float64 `json:"parent_q1"`
	ParentQ3         float64 `json:"parent_q3"`
	ChangeMedian     float64 `json:"change_median"`
	ChangeQ1         float64 `json:"change_q1"`
	ChangeQ3         float64 `json:"change_q3"`
	ChangeOverParent float64 `json:"change_over_parent"`
	PairsChangeLower int     `json:"pairs_change_lower"`
}

// claim restates the summary of the one metric a PR claims to lower, in the
// terms the acceptance rule uses: pairs won, and the medians' distance
// against the parent's own interquartile range.
type claim struct {
	Metric              string  `json:"metric"`
	ParentMedian        float64 `json:"parent_median"`
	ChangeMedian        float64 `json:"change_median"`
	ParentOverChange    float64 `json:"parent_over_change"`
	PairsWon            int     `json:"pairs_won"`
	Pairs               int     `json:"pairs"`
	ParentInterquartile float64 `json:"parent_interquartile"`
}

type report struct {
	Description string                   `json:"description"`
	Machine     string                   `json:"machine"`
	Date        string                   `json:"date"`
	Claim       *claim                   `json:"claim,omitempty"`
	Summary     map[string]metricSummary `json:"summary"`
	Runs        []pairRun                `json:"runs"`
}

func main() {
	parent := flag.String("parent", "HEAD", "commit the change is measured against")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seconds := flag.Float64("seconds", 20, "measuring time per workload and run")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair i uses seed+i")
	workload := flag.String("workload", "all", "workload name, or all")
	claimed := flag.String("claim", "", "metric the change claims to lower, e.g. adapt_cycle.op_x")
	out := flag.String("o", "", "file to write the JSON report to")
	flag.Parse()
	if err := run(*parent, *pairs, *seconds, *seed, *workload, *claimed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(parent string, pairs int, seconds float64, seed int64, workload, claimed, out string) error {
	change, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(change, "benchmark", "run.sh")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	unpack := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", parent, tmp)
	if msg, err := unpack.CombinedOutput(); err != nil {
		return fmt.Errorf("unpack %s: %v: %s", parent, err, msg)
	}
	rev, err := exec.Command("git", "rev-parse", "--short", parent).Output()
	if err != nil {
		return fmt.Errorf("resolve %s: %w", parent, err)
	}

	dirs := map[string]string{"parent": tmp, "change": change}
	rep := report{
		Description: fmt.Sprintf("aabench result lines, parent commit %s vs the working tree: %d pairs of "+
			"`bash benchmark/run.sh --workload %s --seed S --seconds %g --trace 0`, the same seed within a pair, "+
			"seeds %d-%d, the side that runs first alternating from pair to pair. `summary` gives medians and "+
			"quartiles over the runs of each side; `runs` holds the result lines as printed.",
			strings.TrimSpace(string(rev)), pairs, workload, seconds, seed, seed+int64(pairs)-1),
		Machine: fmt.Sprintf("%d CPUs, %s/%s, %s", runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version()),
		Date:    time.Now().Format("2006-01-02"),
	}
	for i := 0; i < pairs; i++ {
		order := []string{"parent", "change"}
		if i%2 == 1 {
			slices.Reverse(order)
		}
		pr := pairRun{Seed: seed + int64(i), First: order[0]}
		for _, side := range order {
			fmt.Fprintf(os.Stderr, "pair %d/%d seed %d: %s\n", i+1, pairs, pr.Seed, side)
			line, err := bench(dirs[side], workload, pr.Seed, seconds)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, side, err)
			}
			if side == "parent" {
				pr.Parent = line
			} else {
				pr.Change = line
			}
		}
		rep.Runs = append(rep.Runs, pr)
	}
	rep.Summary = summarize(rep.Runs)
	printSummary(rep.Summary, pairs)
	if s, ok := rep.Summary[claimed]; ok {
		rep.Claim = &claim{Metric: claimed, ParentMedian: s.ParentMedian, ChangeMedian: s.ChangeMedian,
			ParentOverChange: s.ParentMedian / s.ChangeMedian, PairsWon: s.PairsChangeLower, Pairs: pairs,
			ParentInterquartile: s.ParentQ3 - s.ParentQ1}
		fmt.Printf("claim %s: %.6g -> %.6g, %d of %d pairs lower, parent interquartile range %.3g\n",
			claimed, s.ParentMedian, s.ChangeMedian, s.PairsChangeLower, pairs, s.ParentQ3-s.ParentQ1)
	} else if claimed != "" {
		return fmt.Errorf("claimed metric %q is not in the results", claimed)
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// bench runs the benchmark once in dir and parses its closing result line.
func bench(dir, workload string, seed int64, seconds float64) (*resultLine, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var line resultLine
	if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
		return nil, fmt.Errorf("no result line (%v): %v", err, jerr)
	}
	if err != nil || !line.Correct || line.Failed > 0 {
		return &line, fmt.Errorf("run failed: %v, correct=%v, %d of %d ops failed", err, line.Correct, line.Failed, line.Attempted)
	}
	return &line, nil
}

func summarize(runs []pairRun) map[string]metricSummary {
	sum := map[string]metricSummary{}
	for name, m := range runs[0].Parent.Metrics {
		var ps, cs []float64
		lower := 0
		for _, r := range runs {
			p, c := r.Parent.Metrics[name].Value, r.Change.Metrics[name].Value
			ps, cs = append(ps, p), append(cs, c)
			if c < p {
				lower++
			}
		}
		s := metricSummary{Unit: m.Unit, PairsChangeLower: lower}
		s.ParentQ1, s.ParentMedian, s.ParentQ3 = quartiles(ps)
		s.ChangeQ1, s.ChangeMedian, s.ChangeQ3 = quartiles(cs)
		if s.ParentMedian != 0 {
			s.ChangeOverParent = s.ChangeMedian / s.ParentMedian
		}
		sum[name] = s
	}
	return sum
}

// quartiles interpolates linearly between the sorted values, first and
// last value being the 0th and 100th percentile.
func quartiles(vs []float64) (q1, med, q3 float64) {
	slices.Sort(vs)
	at := func(p float64) float64 {
		pos := p * float64(len(vs)-1)
		i := int(pos)
		if i+1 >= len(vs) {
			return vs[len(vs)-1]
		}
		return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func printSummary(sum map[string]metricSummary, pairs int) {
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Printf("%-32s %-8s %12s %12s %12s %12s %8s %6s\n",
		"metric", "unit", "parent", "parent iqr", "change", "change iqr", "ratio", "lower")
	for _, name := range names {
		s := sum[name]
		fmt.Printf("%-32s %-8s %12.6g %12.3g %12.6g %12.3g %8.4f %3d/%d\n", name, s.Unit,
			s.ParentMedian, s.ParentQ3-s.ParentQ1, s.ChangeMedian, s.ChangeQ3-s.ChangeQ1,
			s.ChangeOverParent, s.PairsChangeLower, pairs)
	}
}
