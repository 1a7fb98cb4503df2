package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times and until
// setupSeconds have passed, at most maxSetups times; setup_s is the
// median. Quick set-ups repeat more, so their median is as steady as
// that of slow ones.
const (
	minSetups    = 3
	maxSetups    = 15
	setupSeconds = 4
)

// minJobs is the fewest untraced jobs a run times, so that the tail
// percentile, with tailMinBeyond samples beyond it, lies above the
// median.
const minJobs = 2*tailMinBeyond + 1

// procs is how many processes, one after another, run a run's jobs.
// On a shared host the speed of a process varies more than the speed
// within one: three processes running the same append jobs back to
// back had medians near 178, 182 and 210 ms, while 12-second segments
// inside each stayed within 7% of each other. A median over several
// processes averages that factor out.
const procs = 5

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"` // the library's resolved default worker count
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// runInfo is printed with every result: the host, the inputs and how
// the run went.
type runInfo struct {
	Workload          string    `json:"workload"`
	Seed              int64     `json:"seed"`
	Seconds           float64   `json:"seconds"`
	Trace             bool      `json:"trace"`
	Host              hostInfo  `json:"host"`
	Input             inputInfo `json:"input"`
	SetupSeconds      []float64 `json:"setup_seconds"`
	Procs             int       `json:"procs"`
	Jobs              int       `json:"jobs"`        // timed untraced jobs
	TracedJobs        int       `json:"traced_jobs"` // timed traced jobs
	LoopSeconds       float64   `json:"loop_seconds"`
	TailPercentile    float64   `json:"tail_percentile,omitempty"`
	TailSamplesBeyond int       `json:"tail_samples_beyond,omitempty"`
	FailedFrac        float64   `json:"failed_frac"`
	Problems          []string  `json:"problems,omitempty"`
	PeakRSSWindow     string    `json:"peak_rss_window,omitempty"`
	ProcPeakRSSMiB    []float64 `json:"proc_peak_rss_mib,omitempty"`
	// HostStealFrac is the share of the host's CPU time stolen by its
	// hypervisor while the jobs ran; a high share explains slow runs.
	HostStealFrac float64 `json:"host_steal_frac"`
	TraceFile     string  `json:"trace_file,omitempty"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func host() hostInfo {
	procs := runtime.GOMAXPROCS(0)
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		Workers:    min(procs, runtime.NumCPU()),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// runWorkload sets the workload up and then runs its jobs in a closed
// loop with one client for cfg.seconds, spread over procs processes
// one after another. An untraced run reports the end-to-end metrics; a
// traced run alternates untraced and traced jobs and reports the
// per-layer metrics.
func runWorkload(cfg config) (result, runInfo, error) {
	info := runInfo{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace, Host: host(), Procs: procs}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, info, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return result{}, info, fmt.Errorf("create work directory: %w", err)
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return result{}, info, fmt.Errorf("create run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	// One set-up makes every row order's input and serial reference.
	var fxs []*fixture
	setupStart := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(setupStart) < setupSeconds*time.Second); i++ {
		start := time.Now()
		set := make([]*fixture, w.orders)
		for k := range set {
			fx, err := w.prepare(orderSeed(cfg.seed, w, k), dir)
			if err != nil {
				return result{}, info, fmt.Errorf("set up %s: %w", w.name, err)
			}
			if fx.wantDDL, err = reference(fx.root); err != nil {
				return result{}, info, fmt.Errorf("set up %s: %w", w.name, err)
			}
			if fxs != nil && fx.wantDDL != fxs[k].wantDDL {
				info.Problems = append(info.Problems, "the reference DDL differs between set-ups of one seed")
			}
			set[k] = fx
		}
		info.SetupSeconds = append(info.SetupSeconds, time.Since(start).Seconds())
		fxs = set
	}
	info.Input = fxs[0].input
	for k, fx := range fxs {
		if err := os.WriteFile(refPath(dir, k), []byte(fx.wantDDL), 0o644); err != nil {
			return result{}, info, fmt.Errorf("write reference: %w", err)
		}
	}

	var all procResult
	steal0, total0 := cpuSteal()
	for p := 0; p < procs; p++ {
		pr, err := runProc(cfg, p, dir)
		if err != nil {
			return result{}, info, fmt.Errorf("process %d: %w", p, err)
		}
		all.Plain = append(all.Plain, pr.Plain...)
		all.Traced = append(all.Traced, pr.Traced...)
		all.Layers = append(all.Layers, pr.Layers...)
		all.Spans = append(all.Spans, pr.Spans...)
		all.Attempted += pr.Attempted
		all.Failed += pr.Failed
		all.Problems = append(all.Problems, pr.Problems...)
		all.AllocBytes += pr.AllocBytes
		all.LoopSeconds += pr.LoopSeconds
		info.PeakRSSWindow = pr.PeakRSSWindow
		info.ProcPeakRSSMiB = append(info.ProcPeakRSSMiB, pr.PeakRSSMiB)
	}
	info.Jobs, info.TracedJobs, info.LoopSeconds = len(all.Plain), len(all.Traced), all.LoopSeconds
	if steal1, total1 := cpuSteal(); total1 > total0 {
		info.HostStealFrac = float64(steal1-steal0) / float64(total1-total0)
	}

	values := map[string]float64{}
	if !cfg.trace {
		values["setup_s"] = median(info.SetupSeconds)
		values["job_ms_p50"] = median(all.Plain)
		v, pct, beyond, err := tail(all.Plain, tailMinBeyond)
		if err != nil {
			return result{}, info, err
		}
		values["job_ms_tail"] = v
		info.TailPercentile, info.TailSamplesBeyond = pct, beyond
		values["rows_per_s"] = float64(len(all.Plain)*info.Input.JobRows) / all.LoopSeconds
		values["alloc_mib_per_job"] = float64(all.AllocBytes) / float64(len(all.Plain)) / (1 << 20)
		values["peak_rss_mib"] = median(info.ProcPeakRSSMiB)
	} else {
		values = medianLayers(all.Layers)
		t3, err := timeTable3(context.Background(), fxs[0].root, maxLhs, info.Host.Workers)
		if err != nil {
			return result{}, info, err
		}
		for k, v := range t3 {
			values[k] = v
		}
		base := median(all.Plain)
		values["trace_overhead_frac"] = (median(all.Traced) - base) / base
		info.TraceFile = filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
		tf := traceFile{Workload: w.name, Seed: cfg.seed, Layers: values, Jobs: all.Layers, Spans: all.Spans}
		if err := writeTrace(info.TraceFile, tf); err != nil {
			return result{}, info, err
		}
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return result{}, info, err
	}
	info.FailedFrac = (&tally{attempted: all.Attempted, failed: all.Failed}).failedFrac()
	info.Problems = append(info.Problems, all.Problems...)
	return result{
		Correct:   all.Failed == 0 && len(info.Problems) == 0,
		Attempted: all.Attempted,
		Failed:    all.Failed,
		Metrics:   metrics,
	}, info, nil
}

// orderSeed is the seed of a workload's k-th row order within a run.
func orderSeed(seed int64, w workload, k int) int64 { return seed*int64(w.orders) + int64(k) }

func refPath(dir string, k int) string { return filepath.Join(dir, fmt.Sprintf("reference-%d.ddl", k)) }

// procResult is what one process of a run measured.
type procResult struct {
	Plain         []float64            `json:"plain"` // untraced job times, ms
	Traced        []float64            `json:"traced,omitempty"`
	Layers        []map[string]float64 `json:"layers,omitempty"` // per traced job
	Spans         []span               `json:"spans,omitempty"`
	Attempted     int                  `json:"attempted"`
	Failed        int                  `json:"failed"`
	Problems      []string             `json:"problems,omitempty"`
	AllocBytes    uint64               `json:"alloc_bytes"` // over the untraced loop
	LoopSeconds   float64              `json:"loop_seconds"`
	PeakRSSMiB    float64              `json:"peak_rss_mib"`
	PeakRSSWindow string               `json:"peak_rss_window"`
}

// runProc runs process p's share of the jobs as a child process and
// waits for it to end.
func runProc(cfg config, p int, dir string) (procResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return procResult{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds.Seconds()/procs, 'f', -1, 64),
		"--trace", trace,
		"--proc", strconv.Itoa(p),
		"--run-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return procResult{}, err
	}
	var pr procResult
	if err := json.Unmarshal(out, &pr); err != nil {
		return procResult{}, fmt.Errorf("decode process result: %w", err)
	}
	return pr, nil
}

// runJobs is one process of a run: it prepares its row order, checks a
// warm-up job in full, including the structure of its tables, and then
// times jobs until its share of the run's seconds has passed.
func runJobs(cfg config, p int, dir string) (procResult, error) {
	var pr procResult
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return pr, err
	}
	spillDir, err := os.MkdirTemp(dir, "spill-")
	if err != nil {
		return pr, fmt.Errorf("create spill directory: %w", err)
	}
	defer os.RemoveAll(spillDir)
	k := p % w.orders
	fx, err := w.prepare(orderSeed(cfg.seed, w, k), spillDir)
	if err != nil {
		return pr, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	want, err := os.ReadFile(refPath(dir, k))
	if err != nil {
		return pr, fmt.Errorf("read reference: %w", err)
	}
	fx.wantDDL = string(want)

	ctx := context.Background()
	origin := time.Now()
	var tl tally
	warm := newTracer(p, 0, origin)
	out, jobErr := fx.job(ctx, warm)
	err = fx.check(out, jobErr, warm.snapshot())
	if err == nil {
		if err = checkStructure(fx.root, out.res, maxLhs); err != nil {
			err = fmt.Errorf("warm-up job: %w", err)
		}
	}
	tl.record(err)

	runtime.GC()
	debug.FreeOSMemory()
	pr.PeakRSSWindow = resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	need := (minJobs + procs - 1) / procs
	deadline := time.Now().Add(cfg.seconds)
	loopStart := time.Now()
	for job := 1; time.Now().Before(deadline) || len(pr.Plain) < need; job++ {
		var tr *tracer
		if cfg.trace && job%2 == 0 {
			tr = newTracer(p, job, origin)
		}
		start := time.Now()
		out, jobErr := fx.job(ctx, tr)
		wall := time.Since(start)
		tl.record(fx.check(out, jobErr, tr.snapshot()))
		if tr == nil {
			pr.Plain = append(pr.Plain, msOf(wall))
			continue
		}
		tr.record("job", "", start)
		pr.Traced = append(pr.Traced, msOf(wall))
		pr.Layers = append(pr.Layers, tr.layers(out, wall))
		pr.Spans = append(pr.Spans, tr.spans...)
	}
	pr.LoopSeconds = time.Since(loopStart).Seconds()
	runtime.ReadMemStats(&after)
	pr.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if pr.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return pr, err
	}
	pr.Attempted, pr.Failed, pr.Problems = tl.attempted, tl.failed, tl.reasons
	if err := checkSpillDirEmpty(spillDir); err != nil {
		pr.Problems = append(pr.Problems, err.Error())
	}
	return pr, nil
}

// cpuSteal reads the host's stolen and total CPU time in clock ticks
// from /proc/stat; both are 0 where it cannot be read.
func cpuSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS starts a new peak-RSS window, so that the reported peak
// covers the measured loop rather than set-up. It returns "loop" when
// the kernel reset the high-water mark and "process" when the peak
// covers the whole process.
func resetPeakRSS() string {
	// Writing 5 to clear_refs resets the peak RSS (Linux 4.0 and later).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return "process"
	}
	return "loop"
}

// peakRSSMiB reads the process's peak resident set size, VmHWM. Unlike
// getrusage's ru_maxrss, it is not raised by the parent's peak, which
// the kernel folds into a child's ru_maxrss when the child execs.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
