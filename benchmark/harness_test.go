package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"contractshard/internal/contract"
	"contractshard/internal/state"
	"contractshard/internal/types"
)

// TestSmoke runs every workload at a tenth of its accounts and batch sizes,
// drill included, once untraced and once traced. It pins that the metric
// names and units of BENCHMARK.json and of the harness are the same set,
// that every one of them is emitted and finite, and that the post-warm-up
// state-root fingerprint depends on the seed alone, not on tracing.
func TestSmoke(t *testing.T) {
	bj, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, harness says %q", i, w.Name, specs[i].name)
		}
	}
	sameDefs := func(kind string, file map[string]string, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(file), len(defs))
		}
		for _, d := range defs {
			if unit, ok := file[d.name]; !ok || unit != d.unit {
				t.Errorf("%s: harness metric %s [%s] is %q in BENCHMARK.json", kind, d.name, d.unit, unit)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layers[m.Name] = m.Unit
	}
	sameDefs("end_to_end", e2e, endToEnd)
	sameDefs("per_layer", layers, perLayer)

	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var prints [2]string
			for i, trace := range []bool{false, true} {
				res, err := runWorkload(runConfig{
					spec: sp.scaled(10), seed: 7, started: time.Now(), trace: trace,
					windowSlots: 2 * traceGroup,
					dir:         filepath.Join(t.TempDir(), "run"),
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Slots != 2*traceGroup || res.TxAttempted != res.Slots*sp.scaled(10).perSlot() || res.TxFailed != 0 {
					t.Errorf("trace=%v: %d slots, %d attempted, %d failed", trace, res.Slots, res.TxAttempted, res.TxFailed)
				}
				line, err := res.contractLine()
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				var parsed struct {
					Metrics map[string]struct{ Unit string } `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil {
					t.Fatal(err)
				}
				if len(parsed.Metrics) != len(res.defs()) {
					t.Errorf("trace=%v: result line has %d metrics, want %d", trace, len(parsed.Metrics), len(res.defs()))
				}
				onlyXShard := []string{"node.relay_ms", "xshard.check_mint_us", "xshard.book_add_us", "xshard.mint_bytes"}
				for _, name := range onlyXShard {
					if trace && (res.Samples[name] > 0) != (sp.burns > 0) {
						t.Errorf("%s has %d samples on %s", name, res.Samples[name], sp.name)
					}
				}
				prints[i] = res.Fingerprint
			}
			if prints[0] != prints[1] {
				t.Errorf("same seed, different fingerprints: %s untraced, %s traced", prints[0], prints[1])
			}
		})
	}
}

// TestLoopContractCost pins the premise of contract-compute: one call of the
// benchmark's loop contract costs at least ten times the gas of the paper's
// unconditional transfer, and fits the per-transaction gas budget.
func TestLoopContractCost(t *testing.T) {
	gasOf := func(code []byte) uint64 {
		st := state.New()
		self := contractAddr(1)
		st.SetBalance(self, 10)
		res, err := contract.Execute(&contract.Context{
			State: st, Contract: self, Caller: types.BytesToAddress([]byte{1}), Value: 1, Data: []byte{1}, Gas: 0x300000 / 10,
		}, code)
		if err != nil {
			t.Fatal(err)
		}
		return res.GasUsed
	}
	loop, transfer := gasOf(loopContract(loopIterations)), gasOf(contract.UnconditionalTransfer(destAddr(1)))
	if loop < 10*transfer {
		t.Fatalf("loop contract costs %d gas, unconditional transfer %d", loop, transfer)
	}
	t.Logf("loop %d gas, unconditional transfer %d gas", loop, transfer)
}
