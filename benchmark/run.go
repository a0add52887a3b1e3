package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"contractshard/internal/crypto"
	"contractshard/internal/metrics"
	"contractshard/internal/node"
)

// procStart is as close to process start as Go code gets; setup_s and every
// span are measured from it.
var procStart = time.Now()

// runWorkload performs one run and returns its result. Any violation of the
// correctness gate is an error: the caller prints no metrics and exits
// non-zero.
func runWorkload(cfg runConfig) (res *result, err error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(cfg.dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	h, err := newHarness(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := h.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := h.warmup(); err != nil {
		return nil, err
	}
	setup := time.Since(cfg.started) - h.recoverWall

	// The window.
	hits0, misses0 := crypto.DefaultVerifyCacheStats()
	net0 := h.net.Stats()
	node0 := h.nodeTotals()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	var recs []slotRec
	h.measuring = true
	winStart := time.Now()
	for i := 0; ; i++ {
		if cfg.windowSlots > 0 {
			if i == cfg.windowSlots {
				break
			}
		} else if time.Since(winStart) >= cfg.window {
			break
		}
		h.tr.on.Store(cfg.trace && (i/traceGroup)%2 == 0)
		rec, err := h.slot(false)
		if err != nil {
			return nil, fmt.Errorf("window slot %d: %w", i+1, err)
		}
		recs = append(recs, rec)
	}
	h.measuring = false
	h.tr.on.Store(false)
	winWall := time.Since(winStart)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	hits1, misses1 := crypto.DefaultVerifyCacheStats()
	net1 := h.net.Stats()
	node1 := h.nodeTotals()

	// Settle: empty slots until every window burn has minted.
	for i := 0; i < settleSlots && len(h.pending) > 0; i++ {
		if _, err := h.slot(true); err != nil {
			return nil, fmt.Errorf("settle slot %d: %w", i+1, err)
		}
	}
	failed := h.attempted - len(h.latMS)
	if failed > 0 {
		return nil, fmt.Errorf("tx_failed = %d of %d: not confirmed %d settle slots past the window", failed, h.attempted, settleSlots)
	}
	if len(h.pending) > 0 || h.burnsSent != h.mintsSeen {
		return nil, fmt.Errorf("burns %d, mints %d, %d still pending after the settle slots", h.burnsSent, h.mintsSeen, len(h.pending))
	}
	if err := h.agree(); err != nil {
		return nil, err
	}

	var flushMS []float64
	for _, sr := range h.shards {
		for _, m := range sr.m {
			t := time.Now()
			if err := m.Flush(); err != nil {
				return nil, fmt.Errorf("flush: %w", err)
			}
			flushMS = append(flushMS, ms(time.Since(t)))
		}
	}

	var onClock time.Duration
	for _, r := range recs {
		onClock += r.onClock()
	}
	res = &result{
		Workload:    cfg.spec.name,
		Trace:       cfg.trace,
		Env:         environment(cfg, h.lanes),
		Fingerprint: h.fingerprint,
		Slots:       len(recs),
		TxAttempted: h.attempted,
		TxFailed:    failed,
		Samples:     map[string]int{"latency": len(h.latMS), "slots": len(recs), "recover": len(h.recoverS)},
		Values:      map[string]float64{},
	}
	v := res.Values
	v["confirm_tps"] = float64(len(h.latMS)) / onClock.Seconds()
	v["confirm_p50_ms"] = metrics.Percentile(h.latMS, 0.50)
	v["confirm_p90_ms"] = metrics.Percentile(h.latMS, 0.90)
	v["confirm_p99_ms"] = metrics.Percentile(h.latMS, 0.99)
	v["recover_s"] = metrics.Percentile(h.recoverS, 0.50)
	v["live_heap_mb"] = float64(h.liveHeap) / (1 << 20)
	v["setup_s"] = setup.Seconds()
	v["window_s"] = winWall.Seconds()
	v["on_clock_s"] = onClock.Seconds()
	if !cfg.trace {
		return res, nil
	}

	// Per-layer numbers, traced runs only.
	// The xshard layer and store.Put are idle on some workloads; they then
	// report 0 over 0 samples.
	lay := samples{"node.relay_ms": nil, "xshard.check_mint_us": nil, "xshard.book_add_us": nil, "xshard.mint_bytes": nil, "store.put_us": nil}
	var tracedTx, plainTx int
	var tracedClock, plainClock time.Duration
	for _, r := range recs {
		if !r.traced {
			plainTx += r.txs
			plainClock += r.onClock()
			continue
		}
		tracedTx += r.txs
		tracedClock += r.onClock()
		lay.add("node.mine_ms", ms(r.maxMine))
		lay.add("node.gossip_settle_ms", ms(r.gossip))
		lay.add("node.validate_settle_ms", ms(r.validate))
		if r.maxRelay > 0 {
			lay.add("node.relay_ms", ms(r.maxRelay))
		}
	}
	var st storeStats
	for _, sr := range h.shards {
		lay["node.submit_tx_us"] = append(lay["node.submit_tx_us"], sr.submitUS...)
		for _, ts := range sr.traced {
			s := ts.stats()
			st.appendUS = append(st.appendUS, s.appendUS...)
			st.putUS = append(st.putUS, s.putUS...)
			st.bytes += s.bytes
		}
	}
	lay["store.append_block_us"], lay["store.put_us"] = st.appendUS, st.putUS
	lay["store.flush_ms"], lay["store.open_ms"], lay["chainsync.catchup_ms"] = flushMS, h.openMS, h.catchupMS
	if err := h.replay(lay); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for name, xs := range lay {
		v[name] = metrics.Percentile(xs, 0.50)
		res.Samples[name] = len(xs)
	}
	for _, name := range []string{"types.block_bytes", "xshard.mint_bytes"} {
		v[name] = metrics.Mean(lay[name])
	}
	v["node.mine_p90_ms"] = metrics.Percentile(lay["node.mine_ms"], 0.90)

	txs := float64(len(h.latMS))
	pooled, other := float64(node1.TxsPooled-node0.TxsPooled), float64(node1.TxsOtherShard-node0.TxsOtherShard)
	v["node.other_shard_share"] = other / (pooled + other)
	v["node.blocks_rejected"] = float64(node1.BlocksRejected)
	v["node.blocks_orphaned"] = float64(node1.BlocksOrphaned)
	v["p2p.msgs_per_tx"] = float64(net1.Total-net0.Total) / txs
	v["p2p.cross_shard_msgs_per_tx"] = float64(net1.CrossShard-net0.CrossShard) / txs
	v["p2p.dropped"] = float64(net1.Dropped)
	v["crypto.verify_miss_per_tx"] = float64(misses1-misses0) / txs
	v["crypto.verify_hit_per_tx"] = float64(hits1-hits0) / txs
	v["exec.parallel_speedup"] = v["chain.add_block_ms"] / v["chain.add_block_parallel_ms"]
	v["store.puts_per_block"] = float64(len(st.putUS)) / float64(len(st.appendUS))
	v["store.bytes_per_tx"] = float64(st.bytes) / float64(tracedTx)
	for _, sr := range h.shards {
		v["chainsync.rounds"] += float64(sr.recovered.Rounds)
		v["chainsync.blocks_fetched"] += float64(sr.recovered.BlocksFetched)
		v["chainsync.timeouts"] += float64(sr.recovered.Timeouts)
	}
	v["proc.cpu_ms_per_tx"] = ms(cpu1-cpu0) / txs
	v["proc.alloc_kb_per_tx"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / txs
	v["proc.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	v["proc.gen_offclock_share"] = 1 - onClock.Seconds()/winWall.Seconds()
	if plainTx > 0 && tracedTx > 0 {
		traced := float64(tracedTx) / tracedClock.Seconds()
		plain := float64(plainTx) / plainClock.Seconds()
		v["proc.trace_overhead_share"] = 1 - traced/plain
	}

	res.Spans = h.tr.snapshot()
	res.SelfTime = selfTimes(res.Spans, "slot")
	for _, row := range res.SelfTime {
		if row.Name == "node.mine" {
			v["node.mine_self_share"] = row.Share
		}
	}
	return res, nil
}

// nodeTotals sums the live miners' counters.
func (h *harness) nodeTotals() node.Stats {
	var c node.Stats
	for _, sr := range h.shards {
		for _, m := range sr.m {
			st := m.Stats()
			c.TxsPooled += st.TxsPooled
			c.TxsOtherShard += st.TxsOtherShard
			c.BlocksRejected += st.BlocksRejected
			c.BlocksOrphaned += st.BlocksOrphaned
		}
	}
	return c
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
