package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkBusPublish-8   \t 1971642\t   608.5 ns/op\t 392 B/op\t  5 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	// Names stay verbatim at parse time; the procs suffix is resolved
	// run-wide by stripProcsSuffix.
	if b.Name != "BenchmarkBusPublish-8" || b.Procs != 0 || b.Runs != 1971642 {
		t.Errorf("header fields = %+v", b)
	}
	if b.NsPerOp != 608.5 || b.BytesPerOp == nil || *b.BytesPerOp != 392 ||
		b.AllocsPerOp == nil || *b.AllocsPerOp != 5 {
		t.Errorf("metrics = %+v", b)
	}

	if _, ok := parseBenchLine("BenchmarkBroken-8 notanumber 1 ns/op"); ok {
		t.Error("malformed runs accepted")
	}
	if _, ok := parseBenchLine("BenchmarkNoMetrics-8 100"); ok {
		t.Error("line without ns/op accepted")
	}

	// Throughput variant without -benchmem.
	b, ok = parseBenchLine("BenchmarkCSV 500 25000 ns/op 120.00 MB/s")
	if !ok || b.MBPerSec != 120 || b.BytesPerOp != nil {
		t.Errorf("throughput line = %+v ok=%v", b, ok)
	}

	// Custom ReportMetric units land in the Metrics map.
	b, ok = parseBenchLine("BenchmarkDeltaAppend/delta 1 295364186 ns/op 2527 candidates/op")
	if !ok || b.Metrics["candidates/op"] != 2527 {
		t.Errorf("custom metric line = %+v ok=%v", b, ok)
	}
}

func TestStripProcsSuffix(t *testing.T) {
	// Uniform GOMAXPROCS suffix: stripped into Procs, even when a
	// sub-benchmark encodes its own trailing number.
	bs := []benchmark{
		{Name: "BenchmarkA-8"},
		{Name: "BenchmarkHyFDWorkers/workers-4-8"},
		{Name: "BenchmarkHyFDWorkers/workers-2-8"},
	}
	stripProcsSuffix(bs)
	if bs[0].Name != "BenchmarkA" || bs[0].Procs != 8 {
		t.Errorf("plain name: %+v", bs[0])
	}
	if bs[1].Name != "BenchmarkHyFDWorkers/workers-4" || bs[1].Procs != 8 {
		t.Errorf("workers name: %+v", bs[1])
	}

	// GOMAXPROCS=1 host: go appends no suffix, so the workers-N series
	// must keep its numbers — the trailing values differ across lines.
	bs = []benchmark{
		{Name: "BenchmarkHyFDWorkers/workers-1"},
		{Name: "BenchmarkHyFDWorkers/workers-2"},
		{Name: "BenchmarkHyFDWorkers/workers-4"},
	}
	stripProcsSuffix(bs)
	for i, want := range []string{"workers-1", "workers-2", "workers-4"} {
		if bs[i].Name != "BenchmarkHyFDWorkers/"+want || bs[i].Procs != 0 {
			t.Errorf("single-core series[%d] = %+v", i, bs[i])
		}
	}

	// A non-numeric tail anywhere disables stripping for the whole run.
	bs = []benchmark{{Name: "BenchmarkA-8"}, {Name: "BenchmarkB/own"}}
	stripProcsSuffix(bs)
	if bs[0].Name != "BenchmarkA-8" || bs[0].Procs != 0 {
		t.Errorf("mixed run stripped anyway: %+v", bs[0])
	}
}

func TestDeriveWorkerSpeedups(t *testing.T) {
	bs := []benchmark{
		{Name: "BenchmarkHyFDWorkers/workers-1", NsPerOp: 1000},
		{Name: "BenchmarkHyFDWorkers/workers-2", NsPerOp: 500},
		{Name: "BenchmarkHyFDWorkers/workers-4", NsPerOp: 250},
		{Name: "BenchmarkNormalizeWorkers/workers-1", NsPerOp: 4000},
		{Name: "BenchmarkNormalizeWorkers/workers-4", NsPerOp: 2000},
		{Name: "BenchmarkFigure3TPCH", NsPerOp: 99},
	}
	deriveWorkerSpeedups(bs)
	for i, want := range []float64{1, 2, 4, 1, 2} {
		if got := bs[i].Metrics["speedup_vs_1w"]; got != want {
			t.Errorf("%s: speedup_vs_1w = %v, want %v", bs[i].Name, got, want)
		}
	}
	if bs[5].Metrics != nil {
		t.Errorf("non-series benchmark gained metrics: %+v", bs[5])
	}

	// -count > 1 repeats every entry; the baseline is the MEAN of the
	// workers-1 entries, applied to each repetition.
	bs = []benchmark{
		{Name: "BenchmarkHyFDWorkers/workers-1", NsPerOp: 900},
		{Name: "BenchmarkHyFDWorkers/workers-2", NsPerOp: 550},
		{Name: "BenchmarkHyFDWorkers/workers-1", NsPerOp: 1100},
		{Name: "BenchmarkHyFDWorkers/workers-2", NsPerOp: 450},
	}
	deriveWorkerSpeedups(bs)
	if got := bs[1].Metrics["speedup_vs_1w"]; got != 1000.0/550.0 {
		t.Errorf("repeated series: speedup_vs_1w = %v, want %v", got, 1000.0/550.0)
	}
	if got := bs[0].Metrics["speedup_vs_1w"]; got != 1000.0/900.0 {
		t.Errorf("workers-1 repetition: speedup_vs_1w = %v, want %v", got, 1000.0/900.0)
	}

	// A series without a workers-1 baseline is left untouched.
	bs = []benchmark{{Name: "BenchmarkX/workers-4", NsPerOp: 10}}
	deriveWorkerSpeedups(bs)
	if bs[0].Metrics != nil {
		t.Errorf("baseline-less series gained metrics: %+v", bs[0])
	}
}

func TestParseAttributesPackages(t *testing.T) {
	// go test prints one header block per package; every benchmark
	// belongs to the block it appears in, not to the last one.
	out := `goos: linux
goarch: amd64
pkg: normalize
cpu: Some CPU @ 2.70GHz
BenchmarkFigure3TPCH-2   	       6	 177516944 ns/op	33754210 B/op	  728942 allocs/op
BenchmarkHyFDWorkers/workers-1-2 	       1	 182645145 ns/op
PASS
ok  	normalize	12.3s
goos: linux
goarch: amd64
pkg: normalize/internal/plistore
cpu: Some CPU @ 2.70GHz
BenchmarkPLIStoreCompress-2 	      10	   1000 ns/op
PASS
ok  	normalize/internal/plistore	1.2s
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ pkg, name string }{
		{"normalize", "BenchmarkFigure3TPCH"},
		{"normalize", "BenchmarkHyFDWorkers/workers-1"},
		{"normalize/internal/plistore", "BenchmarkPLIStoreCompress"},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for i, w := range want {
		if b := rep.Benchmarks[i]; b.Pkg != w.pkg || b.Name != w.name || b.Procs != 2 {
			t.Errorf("benchmark %d = %s %s procs=%d, want %s %s procs=2", i, b.Pkg, b.Name, b.Procs, w.pkg, w.name)
		}
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Some CPU @ 2.70GHz" {
		t.Errorf("header = %q %q %q", rep.Goos, rep.Goarch, rep.CPU)
	}
}

func TestParseRecordsHostShape(t *testing.T) {
	rep, err := parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumCPU != runtime.NumCPU() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("host shape = %d CPUs / GOMAXPROCS %d, want %d / %d",
			rep.NumCPU, rep.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	// The fields are always emitted, and an empty run still yields an
	// empty (not null) benchmark array.
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"num_cpu":`, `"gomaxprocs":`, `"benchmarks":[]`} {
		if !strings.Contains(string(js), key) {
			t.Errorf("JSON %s lacks %s", js, key)
		}
	}
}
