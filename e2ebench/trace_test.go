package main

import (
	"sync"
	"testing"
	"time"

	"normalize"
)

func TestTracerMarksReplayedSpansOverlapped(t *testing.T) {
	tr := newTracer(0, 1, time.Now())
	// A replayed span: start and finish back to back, reporting the
	// duration the work took earlier on another goroutine.
	tr.StageStart(normalize.StageKeyDerivation)
	tr.StageFinish(normalize.StageKeyDerivation, 5*time.Millisecond)
	// A span that ran here.
	tr.StageStart(normalize.StageClosure)
	time.Sleep(2 * time.Millisecond)
	tr.StageFinish(normalize.StageClosure, time.Millisecond)

	v := tr.layers(jobOutput{ingest: time.Millisecond, normalize: 10 * time.Millisecond}, 12*time.Millisecond)
	if v["key-derivation.ms"] != 5 || v["key-derivation.overlapped_ms"] != 5 {
		t.Errorf("key-derivation = %v ms, %v ms overlapped; want 5 and 5", v["key-derivation.ms"], v["key-derivation.overlapped_ms"])
	}
	if v["closure.ms"] != 1 || v["closure.overlapped_ms"] != 0 {
		t.Errorf("closure = %v ms, %v ms overlapped; want 1 and 0", v["closure.ms"], v["closure.overlapped_ms"])
	}
	// The blocking path holds ingest and the closure's wall interval,
	// not the replayed key derivation.
	if b := v["job.blocking_ms"]; b < 3 || b >= 8 {
		t.Errorf("job.blocking_ms = %v, want ingest (1) plus the closure's ~2ms wall", b)
	}
}

func TestTracerCountsConcurrently(t *testing.T) {
	tr := newTracer(0, 1, time.Now())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Counter(normalize.StageDiscovery, "candidates_checked", 1)
				tr.Counter(normalize.StageIngest, normalize.CounterIngestRows, 2)
			}
		}()
	}
	wg.Wait()
	c := tr.snapshot()
	if c["fd-discovery.candidates_checked"] != 4000 || c["ingest.rows"] != 8000 {
		t.Errorf("counters = %v, want 4000 candidates and 8000 ingest rows", c)
	}
}

func TestMedianLayersReportsEveryMetric(t *testing.T) {
	got := medianLayers([]map[string]float64{{"closure.ms": 1}, {"closure.ms": 3}, {}})
	if len(got) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(got), len(perLayer))
	}
	if got["closure.ms"] != 1 {
		t.Errorf("closure.ms median = %v, want 1 (a job without it counts 0)", got["closure.ms"])
	}
}
