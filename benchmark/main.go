// Command benchmark is the performance gate of the serving stack. It
// builds ./cmd/edmserved, runs it as a child process, drives it over at
// most two HTTP connections with one of four seeded workloads, checks
// the daemon's answers, and prints every metric by name and unit. The
// last line of its output is a JSON result.
//
//	go -C benchmark run . -workload ingest-mem -seed 1
//	go -C benchmark run . -workload ingest-wal -trace out.json
//	go -C benchmark run . -workload all -repeat 5 -out head.json
//	go -C benchmark run . -compare base.json head.json
//
// See README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serve(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark serve:", err)
			os.Exit(1)
		}
		return
	}
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "ingest-mem, ingest-wal, read-mixed or tenants-16; with -repeat also a comma list or all")
	seed := fs.Int64("seed", 1, "workload seed (with -repeat, the first of consecutive seeds)")
	seconds := fs.Float64("seconds", 24, "measured seconds per run, split across the phases")
	trace := fs.String("trace", "0", `0 runs untraced; 1 or a file path runs traced and writes the trace there (default .bench_build/trace-<workload>-<seed>.json)`)
	repeat := fs.Int("repeat", 0, "run each workload this many times and print each metric's median and quartiles")
	out := fs.String("out", "", "with -repeat, also write the results to this JSON file")
	compare := fs.Bool("compare", false, "compare two -repeat result files against the BENCHMARK.json bounds: -compare base.json head.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1))
	case *repeat > 0:
		return repeatRuns(root, *name, *seed, *seconds, *repeat, *out)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	cfg := &runConfig{w: w, seed: *seed, seconds: *seconds, setups: defaultSetups}
	switch *trace {
	case "0", "":
	case "1":
		cfg.trace = filepath.Join(root, buildDir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
	default:
		if cfg.trace, err = filepath.Abs(*trace); err != nil {
			return err
		}
	}
	m, err := runOnce(root, cfg)
	if err != nil {
		return err
	}
	for _, line := range m.lines(cfg.trace != "") {
		fmt.Println(line)
	}
	defs := endToEnd
	if cfg.trace != "" {
		defs = perLayer
	}
	line, err := resultLine(defs, m.values, m.attempted, m.failed)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// buildDir, under the repository root, holds the built daemon, the
// runs' work directories and default trace files.
const buildDir = ".bench_build"

// repoRoot finds the repository: the working directory or its parent,
// whichever holds BENCHMARK.json and cmd/edmserved.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return "", err
		}
		_, err1 := os.Stat(filepath.Join(abs, "BENCHMARK.json"))
		_, err2 := os.Stat(filepath.Join(abs, "cmd", "edmserved"))
		if err1 == nil && err2 == nil {
			return abs, nil
		}
	}
	return "", errors.New("run from the repository root or its benchmark directory: no BENCHMARK.json beside cmd/edmserved")
}

// runOnce builds the daemon and runs cfg in a fresh work directory,
// which it removes afterwards.
func runOnce(root string, cfg *runConfig) (*metrics, error) {
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	cfg.daemon = filepath.Join(bin, "edmserved")
	if err := buildDaemon(root, cfg.daemon); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg.self = self
	cfg.work, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	return runWorkload(cfg)
}

// result is the JSON object on the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the result. A run reaching it passed every gate.
func resultLine(defs []metricDef, values map[string]float64, attempted, failed int) (string, error) {
	r := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = resultValue{Value: v, Unit: d.unit}
	}
	raw, err := json.Marshal(r)
	return string(raw), err
}
