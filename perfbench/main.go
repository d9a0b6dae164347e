// Command perfbench is the layered product benchmark: it drives the CR
// product wired the way cmd/crserver wires it (SMTP, gateway, admission
// control, engine, filter chain, resolver caches, WAL, outbound spool)
// and the paper's reproduction pipeline (fleet simulation, decision log,
// log scan), checks every run's outputs, and prints one JSON result.
//
//	bash perfbench/run.sh --workload smtp-live --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is repeated with span recording and a CPU profile,
// and the result carries the per-layer metrics plus the tracing
// overhead. README.md lists every metric and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its figure.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	seed     int64
	seconds  float64
	traced   bool
	workDir  string
	spansDir string
}

// measurement is what one workload run returns. e2e holds the
// end-to-end metrics except setup_s, which setupTimes carries as raw
// samples; layers holds the per-layer metrics of a traced run.
type measurement struct {
	attempted, failed int64
	setupTimes        []time.Duration
	e2e               metrics
	layers            metrics
	spans             *recorder
	// checkErr is non-nil when an output check failed.
	checkErr error
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(options) (*measurement, error){
	"smtp-live":    runSMTPLive,
	"replay-surge": runReplaySurge,
	"paper-repro":  runPaperRepro,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: smtp-live, replay-surge or paper-repro")
		seed     = flag.Int64("seed", 1, "workload seed; equal seeds generate equal inputs")
		secs     = flag.Float64("seconds", 20, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1 = also run traced and report per-layer metrics")
		workDir  = flag.String("workdir", os.TempDir(), "directory for the run's temporary files")
		spansDir = flag.String("spans", "", "directory the traced run writes its spans to (empty = do not write)")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *secs, *traced)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	opts := options{seed: *seed, seconds: *secs, workDir: dir, spansDir: *spansDir}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d, nproc %d, GOMAXPROCS %d\n",
		*name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	plain, err := drive(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Correct: plain.checkErr == nil, Attempted: plain.attempted, Failed: plain.failed, Metrics: metrics{}}
	for k, v := range plain.e2e {
		res.Metrics[k] = v
	}
	res.Metrics.set("setup_s", "s", median(seconds(plain.setupTimes)))
	if plain.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", *name, plain.checkErr)
	}

	if *traced == 1 {
		opts.traced = true
		tr, err := drive(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced): %v\n", *name, err)
			return 1
		}
		if tr.checkErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced): output check failed: %v\n", *name, tr.checkErr)
			res.Correct = false
		}
		layers := tr.layers
		layers.set("host.nproc", "count", float64(runtime.NumCPU()))
		layers.set("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
		layers.set("error_ratio", "ratio", ratio(float64(plain.failed), float64(plain.attempted)))
		for _, k := range []string{"msgs_s", "p50_ms", "p99_ms", "heap_live_mib"} {
			layers.set("trace.overhead."+k, "ratio", tr.e2e[k].Value/plain.e2e[k].Value-1)
		}
		for k, v := range layers {
			if _, declared := perLayerUnits[k]; !declared {
				fmt.Fprintf(os.Stderr, "perfbench: undeclared per-layer metric %s\n", k)
				return 1
			}
			res.Metrics[k] = v
		}
		for k, unit := range perLayerUnits {
			if _, ok := res.Metrics[k]; !ok {
				res.Metrics.set(k, unit, 0) // the layer does no work in this workload
			}
		}
		for _, k := range []string{"msgs_s", "p50_ms", "p99_ms", "heap_live_mib", "setup_s"} {
			delete(res.Metrics, k)
		}
		if *spansDir != "" && tr.spans != nil {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
			if err := tr.spans.writeFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
				return 1
			}
			kept, dropped := tr.spans.counts()
			fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%d beyond the in-memory bound dropped)\n", kept, path, dropped)
		}
	}

	printHuman(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// printHuman writes the metrics as an aligned table to standard error.
func printHuman(m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
