package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// resultsFile is what -repeat writes and -compare reads.
type resultsFile struct {
	Schema     string                      `json:"schema"`
	NumCPU     int                         `json:"num_cpu"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	GoVersion  string                      `json:"go_version"`
	FirstSeed  int64                       `json:"first_seed"`
	Seconds    float64                     `json:"seconds"`
	Workloads  map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	Runs    []map[string]float64 `json:"runs"` // end-to-end metrics per run
	Summary map[string]summary   `json:"summary"`
}

type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
}

const resultsSchema = "edmstream-benchmark/v1"

// repeatRuns runs each named workload n times, seeds seed, seed+1, ...,
// each run a fresh process exactly as a single run would be, and prints
// every end-to-end metric's median and quartiles.
func repeatRuns(root, names string, seed int64, seconds float64, n int, out string) error {
	var ws []workload
	if names == "all" {
		ws = workloads
	} else {
		for _, name := range strings.Split(names, ",") {
			w, err := findWorkload(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := &resultsFile{Schema: resultsSchema, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), FirstSeed: seed, Seconds: seconds, Workloads: map[string]*workloadResults{}}
	for _, w := range ws {
		wr := &workloadResults{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			fmt.Fprintf(os.Stderr, "%s seed %d (%d/%d)\n", w.name, s, i+1, n)
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			r, err := lastResult(raw)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			run := map[string]float64{}
			for name, v := range r.Metrics {
				run[name] = v.Value
			}
			wr.Runs = append(wr.Runs, run)
		}
		wr.Summary = summarize(wr.Runs)
		rf.Workloads[w.name] = wr
		printSummary(w.name, wr)
	}
	if out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(raw, '\n'), 0o644)
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(stdout []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("no JSON result on the last line: %w", err)
	}
	if !r.Correct {
		return nil, errors.New("run reported incorrect output")
	}
	return &r, nil
}

func summarize(runs []map[string]float64) map[string]summary {
	out := map[string]summary{}
	for _, d := range endToEnd {
		var vs []float64
		for _, r := range runs {
			if v, ok := r[d.name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			continue
		}
		s := summary{Unit: d.unit, Median: median(vs)}
		s.Q1, s.Q3 = quartiles(vs)
		s.Spread = (s.Q3 - s.Q1) / s.Median
		out[d.name] = s
	}
	return out
}

func printSummary(name string, wr *workloadResults) {
	fmt.Printf("%s: %d runs\n  %-18s %14s %14s %14s %8s\n", name, len(wr.Runs), "metric", "median", "q1", "q3", "spread")
	for _, d := range endToEnd {
		if s, ok := wr.Summary[d.name]; ok {
			fmt.Printf("  %-18s %14.4f %14.4f %14.4f %7.1f%%  %s\n", d.name, s.Median, s.Q1, s.Q3, 100*s.Spread, d.unit)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json -compare needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readResults(file string) (*resultsFile, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if rf.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", file, rf.Schema, resultsSchema)
	}
	return &rf, nil
}

// verdict judges one metric of one workload, head against base. worse is
// the share by which head's median is worse than base's (negative when
// better). A change within the bound counts as unchanged only when both
// sides repeat within the bound; otherwise it is unresolved, unless
// every head run beats every base run.
func verdict(base, head []float64, better string, bound float64) (worse float64, v string) {
	mb, mh := median(base), median(head)
	if better == "lower" {
		worse = (mh - mb) / mb
	} else {
		worse = (mb - mh) / mb
	}
	spread := 0.0
	for _, vs := range [][]float64{base, head} {
		q1, q3 := quartiles(vs)
		spread = math.Max(spread, (q3-q1)/median(vs))
	}
	beats := func(h, b float64) bool {
		if better == "lower" {
			return h < b
		}
		return h > b
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && beats(h, b)
		}
	}
	switch {
	case allBetter:
		return worse, "better"
	case spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "REGRESSED"
	default:
		return worse, "within bound"
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change and its verdict under the BENCHMARK.json bound. It fails
// when any metric regressed.
func compareFiles(root, baseFile, headFile string) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base, err := readResults(baseFile)
	if err != nil {
		return err
	}
	head, err := readResults(headFile)
	if err != nil {
		return err
	}
	fmt.Printf("base %s (%d cpus), head %s (%d cpus)\n", baseFile, base.NumCPU, headFile, head.NumCPU)
	names := make([]string, 0, len(base.Workloads))
	for name := range base.Workloads {
		if _, ok := head.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressed := 0
	for _, name := range names {
		fmt.Printf("%s\n  %-18s %14s %14s %8s %6s  %s\n", name, "metric", "base median", "head median", "worse", "bound", "verdict")
		for _, m := range bj.EndToEnd {
			b, h := column(base.Workloads[name].Runs, m.Name), column(head.Workloads[name].Runs, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			worse, v := verdict(b, h, m.Better, m.Bound)
			if v == "REGRESSED" {
				regressed++
			}
			fmt.Printf("  %-18s %14.4f %14.4f %7.1f%% %5.0f%%  %s\n", m.Name, median(b), median(h), 100*worse, 100*m.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}

func column(runs []map[string]float64, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}
