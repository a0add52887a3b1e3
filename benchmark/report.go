package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"contractshard/internal/metrics"
)

// metricDef names one reported metric. The two tables below are the
// harness's side of BENCHMARK.json; harness_test.go fails when they drift.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"confirm_tps", "tx/s"},
	{"confirm_p50_ms", "ms"},
	{"confirm_p90_ms", "ms"},
	{"recover_s", "s"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"node.submit_tx_us", "us"},
	{"node.mine_ms", "ms"},
	{"node.mine_p90_ms", "ms"},
	{"node.mine_self_share", "ratio"},
	{"node.gossip_settle_ms", "ms"},
	{"node.validate_settle_ms", "ms"},
	{"node.relay_ms", "ms"},
	{"node.other_shard_share", "ratio"},
	{"node.blocks_rejected", "count"},
	{"node.blocks_orphaned", "count"},
	{"p2p.msgs_per_tx", "count"},
	{"p2p.cross_shard_msgs_per_tx", "count"},
	{"p2p.dropped", "count"},
	{"crypto.verify_miss_per_tx", "count"},
	{"crypto.verify_hit_per_tx", "count"},
	{"crypto.verify_tx_us", "us"},
	{"sharding.route_tx_ns", "ns"},
	{"sharding.verify_membership_us", "us"},
	{"mempool.add_us", "us"},
	{"mempool.take_top_us", "us"},
	{"mempool.remove_txs_us", "us"},
	{"types.encode_block_us", "us"},
	{"types.decode_block_us", "us"},
	{"types.block_bytes", "B"},
	{"chain.build_block_ms", "ms"},
	{"chain.add_block_ms", "ms"},
	{"chain.add_block_parallel_ms", "ms"},
	{"chain.genesis_ms", "ms"},
	{"exec.parallel_speedup", "ratio"},
	{"state.copy_ms", "ms"},
	{"state.root_ms", "ms"},
	{"trie.build_ms", "ms"},
	{"contract.execute_us", "us"},
	{"xshard.check_mint_us", "us"},
	{"xshard.book_add_us", "us"},
	{"xshard.mint_bytes", "B"},
	{"store.append_block_us", "us"},
	{"store.put_us", "us"},
	{"store.puts_per_block", "count"},
	{"store.bytes_per_tx", "B"},
	{"store.flush_ms", "ms"},
	{"store.open_ms", "ms"},
	{"chainsync.catchup_ms", "ms"},
	{"chainsync.rounds", "count"},
	{"chainsync.blocks_fetched", "count"},
	{"chainsync.timeouts", "count"},
	{"proc.cpu_ms_per_tx", "ms"},
	{"proc.alloc_kb_per_tx", "KB"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.gen_offclock_share", "ratio"},
	{"proc.trace_overhead_share", "ratio"},
}

// env is the environment block every result carries.
type env struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Lanes      int     `json:"lanes"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Accounts   int     `json:"accounts_per_shard"`
	TxPerSlot  int     `json:"tx_per_slot"`
}

func environment(cfg runConfig, lanes int) env {
	return env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Lanes: lanes,
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Commit: commit(),
		Seed: cfg.seed, WindowS: cfg.window.Seconds(),
		Accounts: cfg.spec.accounts, TxPerSlot: cfg.spec.perSlot(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit without running git; a checkout that
// is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(".git/" + name)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}

// result is one run, as written to the results file and the trace file.
type result struct {
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	Env         env                `json:"env"`
	Fingerprint string             `json:"fingerprint"`
	Slots       int                `json:"slots"`
	TxAttempted int                `json:"tx_attempted"`
	TxFailed    int                `json:"tx_failed"`
	Samples     map[string]int     `json:"samples"`
	Values      map[string]float64 `json:"values"`
	SelfTime    []selfRow          `json:"self_time,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// defs is the metric table the run reports against: end-to-end metrics come
// only from untraced runs, per-layer metrics only from traced ones.
func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// contractLine is the one-line JSON object the benchmark contract asks for
// as the last line of standard output.
func (r *result) contractLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Attempted: r.TxAttempted, Failed: r.TxFailed, Metrics: map[string]mv{}}
	for _, d := range r.defs() {
		v, ok := r.Values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = mv{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	kind := "untraced"
	if r.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed %d: %d slots, %d tx attempted, %d failed, window %.1fs (%.1fs on the clock), fingerprint %s\n",
		r.Workload, kind, r.Env.Seed, r.Slots, r.TxAttempted, r.TxFailed,
		r.Values["window_s"], r.Values["on_clock_s"], r.Fingerprint[:16])
	fmt.Fprintf(w, "   env: %d cpu, GOMAXPROCS %d, %d lanes, %s, %s, commit %s\n",
		r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.Lanes, r.Env.GoVersion, r.Env.CPUModel, r.Env.Commit)
	t := &metrics.Table{Headers: []string{"metric", "value", "unit", "samples"}}
	row := func(d metricDef) {
		n := ""
		if c, ok := r.Samples[d.name]; ok {
			n = fmt.Sprint(c)
		}
		t.AddRow(d.name, fmt.Sprintf("%.4g", r.Values[d.name]), d.unit, n)
	}
	for _, d := range r.defs() {
		row(d)
	}
	if !r.Trace {
		row(metricDef{"confirm_p99_ms", "ms"})
	} else {
		row(metricDef{"confirm_tps", "tx/s"})
	}
	fmt.Fprintln(w, t.String())
	if len(r.SelfTime) > 0 {
		st := &metrics.Table{Title: "self time per span name, traced slots", Headers: []string{"span", "count", "self ms", "share"}}
		for _, s := range r.SelfTime {
			st.AddRow(s.Name, fmt.Sprint(s.Count), fmt.Sprintf("%.1f", s.SelfMS), fmt.Sprintf("%.1f%%", 100*s.Share))
		}
		fmt.Fprintln(w, st.String())
	}
}

// appendResult appends the run, without its spans, as one line of path.
func appendResult(path string, r *result) (err error) {
	lean := *r
	lean.Spans = nil
	line, err := json.Marshal(&lean)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	_, err = f.Write(append(line, '\n'))
	return err
}

// writeTrace writes the full traced result, spans included.
func writeTrace(path string, r *result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// benchmarkJSON is the part of BENCHMARK.json the harness reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readResults loads the untraced runs of a results file, by workload.
func readResults(path string) (map[string][]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// compare applies BENCHMARK.json's bounds to two result sets: one row per
// workload and end-to-end metric, with both medians and a verdict. It
// reports whether any cell is worse.
func compare(w io.Writer, spec *benchmarkJSON, a, b map[string][]*result) (worse bool, err error) {
	t := &metrics.Table{Headers: []string{"workload", "metric", "A median", "B median", "change", "spread A", "spread B", "bound", "verdict"}}
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			return false, fmt.Errorf("workload %s: %d runs in A, %d in B", wl.Name, len(ra), len(rb))
		}
		for _, m := range spec.EndToEnd {
			col := func(rs []*result) (med, spread float64) {
				xs := make([]float64, len(rs))
				for i, r := range rs {
					xs[i] = r.Values[m.Name]
				}
				q1, q2, q3 := quartiles(xs)
				return q2, (q3 - q1) / q2
			}
			ma, sa := col(ra)
			mb, sb := col(rb)
			change := (mb - ma) / ma
			if m.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse = true
			}
			t.AddRow(wl.Name, m.Name, fmt.Sprintf("%.4g", ma), fmt.Sprintf("%.4g", mb),
				fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma), fmt.Sprintf("%.1f%%", 100*sa), fmt.Sprintf("%.1f%%", 100*sb),
				fmt.Sprintf("%.0f%%", 100*m.Bound), verdict)
		}
	}
	fmt.Fprintln(w, t.String())
	return worse, nil
}
