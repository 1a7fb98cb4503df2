package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	latency    = metricDef{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	throughput = metricDef{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.10}
)

// runs builds seed → value maps from base·(1 + jitter[i]) for seeds 1..n.
func runs(base float64, jitter ...float64) map[int64]float64 {
	m := make(map[int64]float64, len(jitter))
	for i, j := range jitter {
		m[int64(i+1)] = base * (1 + j)
	}
	return m
}

var steady = []float64{-0.01, 0.005, 0, 0.01, -0.005, 0.002, -0.002, 0.008, -0.008, 0.001}

func TestVerdicts(t *testing.T) {
	cases := []struct {
		name           string
		def            metricDef
		parent, change map[int64]float64
		want           string
		wins, pairs    int
	}{
		{"faster in every pair", latency, runs(100, steady...), runs(90, steady...), verdictImproved, 10, 10},
		{"the same", latency, runs(100, steady...), runs(100.5, steady...), verdictNoWorse, 0, 10},
		{"slower within bound", latency, runs(100, steady...), runs(108, steady...), verdictNoWorse, 0, 10},
		{"slower beyond bound", latency, runs(100, steady...), runs(115, steady...), verdictRegressed, 0, 10},
		{"higher is better", throughput, runs(100, steady...), runs(115, steady...), verdictImproved, 10, 10},
		{"lower throughput beyond bound", throughput, runs(100, steady...), runs(85, steady...), verdictRegressed, 0, 10},
		// Nine pairs cannot carry a claimed gain, however clear.
		{"too few pairs", latency, runs(100, steady[:9]...), runs(90, steady[:9]...), verdictNoWorse, 9, 9},
		// Ties count for neither side, so 8 wins of 10 is no gain.
		{"ties are no wins", latency,
			runs(100, steady...),
			map[int64]float64{1: 80, 2: 80, 3: 80, 4: 80, 5: 80, 6: 80, 7: 80, 8: 80, 9: 100 * (1 - 0.008), 10: 100 * (1 + 0.001)},
			verdictNoWorse, 8, 10},
		// The median shift must exceed the parent's own spread.
		{"shift inside the spread", latency,
			runs(100, -0.04, -0.03, -0.02, -0.01, 0, 0.01, 0.02, 0.03, 0.04, 0.05),
			runs(99, -0.04, -0.03, -0.02, -0.01, 0, 0.01, 0.02, 0.03, 0.04, 0.05),
			verdictNoWorse, 10, 10},
		// A spread wider than the bound leaves "unchanged" unresolved...
		{"spread wider than bound", latency,
			runs(100, -0.3, 0.3, -0.2, 0.2, 0, 0.1, -0.1, 0.25, -0.25, 0.05),
			runs(100, 0.3, -0.3, 0.2, -0.2, 0, -0.1, 0.1, -0.25, 0.25, -0.05),
			verdictUnresolved, 5, 10},
		// ...unless every change run beats every parent run.
		{"wide spread, change always better", latency,
			runs(100, -0.3, 0.3, -0.2, 0.2, 0, 0.1, -0.1, 0.25, -0.25),
			runs(60, 0, 0.01, -0.01, 0, 0, 0, 0, 0, 0),
			verdictNoWorse, 9, 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := judge(c.def, c.parent, c.change)
			if got.verdict != c.want || got.wins != c.wins || got.pairs != c.pairs {
				t.Errorf("verdict %q with %d/%d wins; want %q with %d/%d", got.verdict, got.wins, got.pairs, c.want, c.wins, c.pairs)
			}
		})
	}
}

func TestJudgePairsBySeed(t *testing.T) {
	parent := map[int64]float64{1: 100, 2: 100, 3: 100}
	change := map[int64]float64{2: 90, 3: 110, 4: 80}
	c := judge(latency, parent, change)
	if c.pairs != 2 || c.wins != 1 {
		t.Errorf("pairs = %d, wins = %d; want 2 pairs (seeds 2 and 3) and 1 win", c.pairs, c.wins)
	}
}

// writeSet saves fake run outputs the way a result set holds them.
func writeSet(t *testing.T, dir string, base float64) {
	t.Helper()
	for seed := int64(1); seed <= 10; seed++ {
		for _, trace := range []bool{false, true} {
			info := runInfo{Workload: "tpch-wide", Seed: seed, Trace: trace}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res := result{Correct: true, Attempted: 20, Metrics: map[string]metricValue{}}
			for _, d := range defs {
				res.Metrics[d.Name] = metricValue{Value: base * (1 + steady[seed-1]), Unit: d.Unit}
			}
			il, _ := json.Marshal(map[string]runInfo{"info": info})
			rl, _ := json.Marshal(res)
			name := filepath.Join(dir, fmt.Sprintf("tpch-wide-%d-%v.out", seed, trace))
			if err := os.WriteFile(name, []byte(fmt.Sprintf("%s\n%s\n", il, rl)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCompareMainPrintsRowsAndLayerDiff(t *testing.T) {
	parentDir, changeDir := t.TempDir(), t.TempDir()
	writeSet(t, parentDir, 100)
	writeSet(t, changeDir, 100.2)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{parentDir, changeDir}, &out, &errOut); code != 0 {
		t.Fatalf("compare exited %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"== tpch-wide: parent 20 runs, 0/400 jobs failed", "job_ms_p50", verdictNoWorse, "per-layer", "fd-discovery.ms", "+0.2%"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
	for _, d := range endToEnd {
		if !strings.Contains(text, d.Name) {
			t.Errorf("compare output has no row for %s", d.Name)
		}
	}
}

func TestCompareMainRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.out"), []byte("not a result\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := compareMain([]string{dir, dir}, &out, &errOut); code == 0 {
		t.Error("compare accepted a file without a result")
	}
	if code := compareMain([]string{dir}, &out, &errOut); code != 2 {
		t.Errorf("compare with one argument exited %d, want 2", code)
	}
}
