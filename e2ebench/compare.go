package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of a comparison, by the rules of paired measurement: a gain
// needs nine tenths of the pairs and a median shift larger than the
// parent's own spread; a metric whose spread exceeds its bound cannot
// be called unchanged.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may rest on.
const minPairs = 10

// savedRun is one run's saved standard output.
type savedRun struct {
	info runInfo
	res  result
}

// loadRuns reads every regular file in dir as one run's output: an
// info line followed by the result line.
func loadRuns(dir string) ([]savedRun, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("read result set: %w", err)
	}
	var runs []savedRun
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, err := loadRun(path)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("result set %s holds no runs", dir)
	}
	return runs, nil
}

func loadRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, fmt.Errorf("read %s: %w", path, err)
	}
	if len(lines) < 2 {
		return savedRun{}, fmt.Errorf("%s: want an info line and a result line", path)
	}
	var r savedRun
	var info map[string]runInfo
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil || info["info"].Workload == "" {
		return savedRun{}, fmt.Errorf("%s: the line before the result is not an info line", path)
	}
	r.info = info["info"]
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		return savedRun{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

// comparison is one row: a metric on a workload, parent against change.
type comparison struct {
	parent, change []float64 // in seed order
	pairs, wins    int
	verdict        string
}

// judge compares the runs of one metric. Runs pair up by seed.
func judge(def metricDef, parent, change map[int64]float64) comparison {
	var c comparison
	seeds := func(m map[int64]float64) []int64 {
		s := make([]int64, 0, len(m))
		for k := range m {
			s = append(s, k)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	for _, s := range seeds(parent) {
		c.parent = append(c.parent, parent[s])
		if v, ok := change[s]; ok {
			c.pairs++
			if better(def, v, parent[s]) {
				c.wins++
			}
		}
	}
	for _, s := range seeds(change) {
		c.change = append(c.change, change[s])
	}
	c.verdict = verdict(def, c.parent, c.change, c.pairs, c.wins)
	return c
}

// better reports whether a is strictly better than b for the metric.
func better(def metricDef, a, b float64) bool {
	if def.Better == higher {
		return a > b
	}
	return a < b
}

// verdict applies the paired-measurement rules to one metric.
func verdict(def metricDef, parent, change []float64, pairs, wins int) string {
	if len(parent) < 2 || len(change) < 1 {
		return verdictUnresolved
	}
	pm, cm := median(parent), median(change)
	q1, q3, _ := quartiles(parent)
	if pm == 0 {
		return verdictUnresolved
	}
	gain := pm - cm
	if def.Better == higher {
		gain = cm - pm
	}
	if pairs >= minPairs && wins*10 >= 9*pairs && gain > q3-q1 {
		return verdictImproved
	}
	if (q3-q1)/pm > def.Bound {
		if allBetter(def, change, parent) {
			return verdictNoWorse
		}
		return verdictUnresolved
	}
	if -gain/pm > def.Bound {
		return verdictRegressed
	}
	return verdictNoWorse
}

// allBetter reports whether every change run beats every parent run.
func allBetter(def metricDef, change, parent []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(def, c, p) {
				return false
			}
		}
	}
	return true
}

// bySeed collects one metric of the runs of a workload, keyed by seed.
func bySeed(runs []savedRun, workload string, trace bool, metric string) map[int64]float64 {
	m := map[int64]float64{}
	for _, r := range runs {
		if r.info.Workload != workload || r.info.Trace != trace {
			continue
		}
		if v, ok := r.res.Metrics[metric]; ok {
			m[r.info.Seed] = v.Value
		}
	}
	return m
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare <parent-results-dir> <change-results-dir>")
		return 2
	}
	parent, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	change, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	writeComparison(stdout, parent, change)
	return 0
}

// writeComparison prints, per workload, one row per end-to-end metric
// and the per-layer diff of the traced runs beside it.
func writeComparison(w io.Writer, parent, change []savedRun) {
	for _, wl := range workloadNames(parent, change) {
		fmt.Fprintf(w, "== %s: parent %s; change %s\n", wl, tallyOf(parent, wl), tallyOf(change, wl))
		fmt.Fprintf(w, "%-18s %-7s %-30s %-30s %8s %6s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
		for _, d := range endToEnd {
			c := judge(d, bySeed(parent, wl, false, d.Name), bySeed(change, wl, false, d.Name))
			if len(c.parent) == 0 && len(c.change) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-18s %-7s %-30s %-30s %8s %6s  %s\n", d.Name, d.Unit,
				describe(c.parent), describe(c.change), shift(c.parent, c.change),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
		header := false
		for _, d := range perLayer {
			p, c := values(bySeed(parent, wl, true, d.Name)), values(bySeed(change, wl, true, d.Name))
			if len(p) == 0 && len(c) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "  per-layer (traced runs, medians)\n  %-42s %-6s %14s %14s %8s\n", "metric", "unit", "parent", "change", "delta")
				header = true
			}
			fmt.Fprintf(w, "  %-42s %-6s %14s %14s %8s\n", d.Name, d.Unit, num(p), num(c), shift(p, c))
		}
		fmt.Fprintln(w)
	}
}

// workloadNames lists the workloads the sets hold, known ones first.
func workloadNames(sets ...[]savedRun) []string {
	present := map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			present[r.info.Workload] = true
		}
	}
	var names, extra []string
	for _, wl := range workloads {
		if present[wl.name] {
			names = append(names, wl.name)
			delete(present, wl.name)
		}
	}
	for n := range present {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// tallyOf summarizes a side's runs of a workload and their failures.
func tallyOf(runs []savedRun, workload string) string {
	n, attempted, failed, incorrect := 0, 0, 0, 0
	for _, r := range runs {
		if r.info.Workload != workload {
			continue
		}
		n++
		attempted += r.res.Attempted
		failed += r.res.Failed
		if !r.res.Correct {
			incorrect++
		}
	}
	s := fmt.Sprintf("%d runs, %d/%d jobs failed", n, failed, attempted)
	if incorrect > 0 {
		s += fmt.Sprintf(", %d runs INCORRECT", incorrect)
	}
	return s
}

func values(m map[int64]float64) []float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return xs
}

func describe(xs []float64) string {
	switch len(xs) {
	case 0:
		return "-"
	case 1:
		return num(xs)
	}
	q1, q3, _ := quartiles(xs)
	return fmt.Sprintf("%s [%.4g, %.4g]", num(xs), q1, q3)
}

func num(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", median(xs))
}

// shift is the change median relative to the parent median.
func shift(parent, change []float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return "-"
	}
	pm := median(parent)
	if pm == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(median(change)-pm)/pm)
}
