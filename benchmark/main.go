// Command benchmark is the repository's end-to-end, layer-attributed
// benchmark: it drives the real node path (submit → gossip → mine →
// validate → persist) on four named workloads and reports the metrics named
// in BENCHMARK.json. See README.md; run it through run.sh.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"contractshard/internal/metrics"
)

//go:embed testdata/fingerprints.json
var pinnedFingerprints []byte

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	runs     int
	out      string
	results  string
	compare  bool
}

func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	fs.StringVar(&o.trace, "trace", "", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default 0; both with -workload all)")
	fs.IntVar(&o.runs, "runs", 1, "with -workload all: repeat the untraced runs over this many consecutive seeds")
	fs.StringVar(&o.out, "out", "benchmark/out", "directory for results, traces and the miners' datadirs")
	fs.StringVar(&o.results, "results", "", "file every run is appended to, one JSON line each (default <out>/results.jsonl)")
	fs.BoolVar(&o.compare, "compare", false, "compare two results files: -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	if o.compare {
		return runCompare(stdout, spec, fs.Args())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds == 0 {
		o.seconds = spec.RunSeconds
	}
	if o.results == "" {
		o.results = filepath.Join(o.out, "results.jsonl")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return fmt.Errorf("-trace takes 0 or 1, not %q", o.trace)
	}
	if o.workload == "all" {
		return runAll(stdout, o)
	}
	sp, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := runConfig{
		spec: sp, seed: o.seed, started: procStart, trace: o.trace == "1",
		window: time.Duration(o.seconds) * time.Second,
		dir:    filepath.Join(o.out, fmt.Sprintf("tmp-%d", os.Getpid())),
	}
	if o.seed == 1 {
		var pinned map[string]string
		if err := json.Unmarshal(pinnedFingerprints, &pinned); err != nil {
			return fmt.Errorf("testdata/fingerprints.json: %w", err)
		}
		if cfg.pinned = pinned[sp.name]; cfg.pinned == "" {
			return fmt.Errorf("testdata/fingerprints.json pins no fingerprint for %s", sp.name)
		}
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	if err := appendResult(o.results, res); err != nil {
		return err
	}
	if cfg.trace {
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace.json", sp.name, o.seed))
		if err := writeTrace(path, res); err != nil {
			return err
		}
	}
	res.print(stdout)
	fmt.Fprintln(stdout, line)
	return nil
}

// runAll runs every workload in a process of its own, so that no run sees
// another's heap or verify cache: untraced over the requested seeds, then
// traced once, unless -trace picks one of the two.
func runAll(stdout io.Writer, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	summary := &metrics.Table{Title: "end-to-end medians are per run; see -compare for sets", Headers: []string{"workload", "seed"}}
	for _, d := range endToEnd {
		summary.Headers = append(summary.Headers, d.name)
	}
	child := func(name string, seed int64, trace string) (string, error) {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-out", o.out, "-results", o.results)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		if _, werr := stdout.Write(outBytes); werr != nil {
			return "", werr
		}
		if err != nil {
			return "", fmt.Errorf("%s seed %d trace %s: %w", name, seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
		return lines[len(lines)-1], nil
	}
	for _, sp := range specs {
		for r := 0; r < o.runs && o.trace != "1"; r++ {
			seed := o.seed + int64(r)
			line, err := child(sp.name, seed, "0")
			if err != nil {
				return err
			}
			var parsed struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				return fmt.Errorf("%s: result line: %w", sp.name, err)
			}
			row := []string{sp.name, fmt.Sprint(seed)}
			for _, d := range endToEnd {
				row = append(row, fmt.Sprintf("%.4g %s", parsed.Metrics[d.name].Value, d.unit))
			}
			summary.AddRow(row...)
		}
		if o.trace != "0" {
			if _, err := child(sp.name, o.seed, "1"); err != nil {
				return err
			}
		}
	}
	if len(summary.Rows) > 0 {
		fmt.Fprintln(stdout, summary.String())
	}
	return nil
}

func runCompare(stdout io.Writer, spec *benchmarkJSON, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare takes two results files, got %d", len(files))
	}
	a, err := readResults(files[0])
	if err != nil {
		return err
	}
	b, err := readResults(files[1])
	if err != nil {
		return err
	}
	worse, err := compare(stdout, spec, a, b)
	if err != nil {
		return err
	}
	if worse {
		return fmt.Errorf("B is worse than A beyond the bound on at least one metric")
	}
	return nil
}
