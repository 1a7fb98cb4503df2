// Command e2ebench is the normalize library's end-to-end benchmark. It
// drives the public API — IngestCSV, then Normalize or NormalizeDelta,
// then DDL — in a closed loop with one client, checks every job's DDL
// byte for byte against a serial from-scratch reference computed at
// set-up, and prints every metric by name with its unit. A run's jobs
// execute in several child processes of the same binary, one after
// another (see procs).
//
// Run one workload (from the repository root):
//
//	bash e2ebench/run.sh --workload tpch-wide --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no observer attached;
// --trace 1 alternates untraced and traced jobs, reports the per-layer
// metrics and the tracing overhead, and writes the spans to workDir.
// The last line of standard output is the result object; the line
// before it holds the host, the inputs and the run's details.
//
// Compare two result sets, each a directory of saved run outputs:
//
//	bash e2ebench/run.sh compare results/parent results/change
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// workDir, under the checkout's build directory, receives the library's
// spill files and the traces.
const workDir = ".bench_build/e2ebench"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: tpch-wide, lineitem-governed or tpch-append")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the closed loop runs")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	proc := fs.Int("proc", -1, "run process `p` of a run whose set-up is in --run-dir (used by the run itself)")
	runDir := fs.String("run-dir", "", "directory holding a run's references (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "e2ebench: want --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	if *proc >= 0 {
		pr, err := runJobs(cfg, *proc, *runDir)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(pr)
		}
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	res, info, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	for _, p := range info.Problems {
		fmt.Fprintln(stderr, "e2ebench: check failed:", p)
	}
	infoLine, err := json.Marshal(map[string]runInfo{"info": info})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", infoLine, resLine)
	return 0
}
