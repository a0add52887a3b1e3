package main

import (
	"fmt"
	"runtime"
	"time"

	"contractshard/internal/callgraph"
	"contractshard/internal/chain"
	"contractshard/internal/contract"
	"contractshard/internal/crypto"
	"contractshard/internal/mempool"
	"contractshard/internal/sharding"
	"contractshard/internal/state"
	"contractshard/internal/store"
	"contractshard/internal/trie"
	"contractshard/internal/types"
	"contractshard/internal/xshard"
)

// replayBlocks is how many of each shard's last canonical blocks the traced
// run pushes back through the layers' public functions.
const replayBlocks = 16

// samples collects per-metric measurements, each in the metric's own unit.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// replay measures the layers that cannot be timed in situ without touching
// the program: after the window, the last replayBlocks blocks of each shard
// are read back from the producer's log and pushed through each layer on
// shadow objects. Every measurement is also a span under one "replay" root.
func (h *harness) replay(out samples) error {
	root := h.tr.begin("replay", 0)
	defer h.tr.end(root)
	timed := func(name string, fn func()) time.Duration {
		id := h.tr.begin(name, root)
		t := time.Now()
		fn()
		d := time.Since(t)
		h.tr.end(id)
		return d
	}

	var shard1 []*types.Block
	for i, sr := range h.shards {
		raws, err := lastBlocks(sr.files[0], replayBlocks)
		if err != nil {
			return err
		}
		blocks := make([]*types.Block, len(raws))
		for i, raw := range raws {
			var derr error
			d := timed("types.decode_block", func() { blocks[i], derr = types.DecodeBlock(raw) })
			if derr != nil {
				return derr
			}
			out.add("types.decode_block_us", us(d))
			out.add("types.encode_block_us", us(timed("types.encode_block", func() { sinkBytes = blocks[i].Encode() })))
			out.add("types.block_bytes", float64(len(raw)))
		}
		if err := h.replayCheapLayers(sr, blocks, out, timed); err != nil {
			return err
		}
		if i == 1 {
			shard1 = blocks
		}
	}
	// Shard 1 carries contract calls in every workload, so the O(block) and
	// O(state) layers are replayed on it.
	if err := h.replayChain(h.shards[1], shard1, out, timed); err != nil {
		return err
	}
	return h.replayPrimitives(out, timed)
}

// sinkBytes keeps results alive so the compiler cannot drop a measured call.
var sinkBytes []byte

// lastBlocks returns the last n records of a block log.
func lastBlocks(s store.Store, n int) ([][]byte, error) {
	skip := s.BlockCount() - n
	var raws [][]byte
	err := s.Blocks(func(i int, raw []byte) error {
		if i >= skip {
			raws = append(raws, append([]byte(nil), raw...))
		}
		return nil
	})
	return raws, err
}

type timedFn func(name string, fn func()) time.Duration

// replayCheapLayers covers crypto, sharding, mempool and xshard: the layers
// whose cost is per transaction or per header.
func (h *harness) replayCheapLayers(sr *shardRun, blocks []*types.Block, out samples, timed timedFn) error {
	graph := callgraph.New()
	dir := sr.cfg[0].Directory
	book := xshard.NewHeaderBook(xshardFinality, h.verifyMember)
	for _, b := range blocks {
		var verr error
		out.add("sharding.verify_membership_us", us(timed("sharding.verify_membership", func() {
			verr = h.verifyMember(b.Header)
		})))
		if verr != nil {
			return verr
		}
		if len(b.Txs) == 0 {
			continue
		}
		n := float64(len(b.Txs))

		// Uncached signature checks on a sample of the block; mints are
		// unsigned and skipped.
		signed := 0
		d := timed("crypto.verify_tx", func() {
			for _, tx := range b.Txs {
				if tx.Kind == types.TxXShardMint {
					continue
				}
				if signed == 32 {
					break
				}
				signed++
				if err := crypto.VerifyTx(tx); err != nil {
					verr = err
				}
			}
		})
		if verr != nil {
			return verr
		}
		if signed > 0 {
			out.add("crypto.verify_tx_us", us(d)/float64(signed))
		}

		d = timed("sharding.route_tx", func() {
			for _, tx := range b.Txs {
				_, isContract := dir.ShardOf(tx.To)
				if got := sharding.RouteTx(tx, graph, dir); got != sr.id {
					verr = fmt.Errorf("replay routed %s to shard %s, mined on %s", tx.Hash(), got, sr.id)
				}
				if tx.Kind == types.TxTransfer {
					graph.ObserveTx(tx, isContract)
				}
			}
		})
		if verr != nil {
			return verr
		}
		out.add("sharding.route_tx_ns", float64(d)/n)

		pool := mempool.New(0)
		d = timed("mempool.add", func() {
			for _, tx := range b.Txs {
				if err := pool.Add(tx); err != nil {
					verr = err
				}
			}
		})
		if verr != nil {
			return verr
		}
		out.add("mempool.add_us", us(d)/n)
		var top []*types.Transaction
		out.add("mempool.take_top_us", us(timed("mempool.take_top", func() {
			top = pool.TakeTop(4 * sr.cfg[0].ChainConfig.MaxBlockTxs)
		})))
		if len(top) != len(b.Txs) {
			return fmt.Errorf("replay pool returned %d of %d txs", len(top), len(b.Txs))
		}
		out.add("mempool.remove_txs_us", us(timed("mempool.remove_txs", func() { pool.RemoveTxs(b.Txs) })))

		mints := 0
		for _, tx := range b.Txs {
			if tx.Kind != types.TxXShardMint || mints == 16 {
				continue
			}
			mints++
			out.add("xshard.check_mint_us", us(timed("xshard.check_mint", func() { verr = xshard.CheckMint(tx) })))
			if verr != nil {
				return verr
			}
			if !book.Has(tx.Mint.Header.Hash()) {
				out.add("xshard.book_add_us", us(timed("xshard.book_add", func() { verr = book.Add(tx.Mint.Header) })))
				if verr != nil {
					return verr
				}
			}
			e := types.NewEncoder()
			tx.Encode(e)
			out.add("xshard.mint_bytes", float64(len(e.Bytes())))
		}
	}
	return nil
}

// replayChain covers chain, exec and state on one shard. The shadow chains
// are recovered from copies of the producer's log cut back by up to
// replayBlocks blocks (no node, no p2p), one with the serial engine and one
// with ExecWorkers = GOMAXPROCS; the cut blocks are then built and added
// again.
func (h *harness) replayChain(sr *shardRun, blocks []*types.Block, out samples, timed timedFn) error {
	shadow := func(tag string, workers int) (*chain.Chain, error) {
		dir := fmt.Sprintf("%s-shadow-%s", sr.dirs[0], tag)
		if err := copyDir(sr.dirs[0], dir); err != nil {
			return nil, err
		}
		fs, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		h.retired = append(h.retired, fs)
		if err := fs.TruncateBlocks(fs.BlockCount() - len(blocks)); err != nil {
			return nil, err
		}
		cc := sr.cfg[0].ChainConfig
		cc.ExecWorkers = workers
		cc.Store = fs
		cc.XShard = xshard.NewHeaderBook(xshardFinality, h.verifyMember)
		if err := cc.XShard.Attach(fs); err != nil {
			return nil, err
		}
		return chain.NewWithContracts(cc, sr.cfg[0].GenesisAlloc, sr.cfg[0].Contracts)
	}
	serial, err := shadow("serial", 0)
	if err != nil {
		return err
	}
	parallel, err := shadow("parallel", runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	key := sr.cfg[0].Key
	for _, b := range blocks {
		head := serial.HeadState()
		out.add("state.copy_ms", ms(timed("state.copy", func() { sinkState = head.Copy() })))

		var rebuilt *types.Block
		var berr error
		out.add("chain.build_block_ms", ms(timed("chain.build_block", func() {
			rebuilt, _, berr = serial.BuildBlockWithProof(b.Header.Coinbase, key.Public, b.Txs, b.Header.Time)
		})))
		if berr != nil {
			return berr
		}
		if rebuilt.Hash() != b.Hash() {
			return fmt.Errorf("replay rebuilt block %d as %s, log holds %s", b.Number(), rebuilt.Hash(), b.Hash())
		}
		out.add("chain.add_block_ms", ms(timed("chain.add_block", func() { berr = serial.AddBlock(b) })))
		if berr != nil {
			return berr
		}
		out.add("chain.add_block_parallel_ms", ms(timed("chain.add_block_parallel", func() { berr = parallel.AddBlock(b) })))
		if berr != nil {
			return berr
		}

		// Root after one block's write set: memoize the root, dirty the
		// block's senders, ask again.
		st := serial.HeadState()
		sinkHash = st.Root()
		for _, tx := range b.Txs {
			if err := st.AddBalance(tx.From, 1); err != nil {
				return err
			}
		}
		out.add("state.root_ms", ms(timed("state.root", func() { sinkHash = st.Root() })))
	}
	if serial.Head().Hash() != sr.m[0].Head().Hash() || parallel.Head().Hash() != sr.m[0].Head().Hash() {
		return fmt.Errorf("replay chains did not reach the producer's head")
	}

	cc := sr.cfg[0].ChainConfig
	for i := 0; i < 3; i++ {
		var gerr error
		out.add("chain.genesis_ms", ms(timed("chain.genesis", func() {
			_, gerr = chain.NewWithContracts(cc, sr.cfg[0].GenesisAlloc, sr.cfg[0].Contracts)
		})))
		if gerr != nil {
			return gerr
		}
	}
	return nil
}

var (
	sinkState *state.State
	sinkHash  types.Hash
)

// replayPrimitives covers trie and contract, which need no blocks: a trie
// of accounts/shard entries shaped like State.Root's, and the workload's
// contract on a bare state.
func (h *harness) replayPrimitives(out samples, timed timedFn) error {
	gen := h.shards[1].gen
	e := types.NewEncoder()
	e.WriteUint64(accountBalance)
	e.WriteUint64(0)
	e.WriteHash(crypto.HashBytes(nil))
	e.WriteBytes(nil)
	leaf := e.Bytes()
	for i := 0; i < 3; i++ {
		out.add("trie.build_ms", ms(timed("trie.build", func() {
			var tr trie.Trie
			for _, a := range gen.addrs {
				tr.Put(append([]byte{'a'}, a[:]...), leaf)
			}
			sinkHash = tr.Hash()
		})))
	}

	code := h.cfg.spec.contractCode(1)
	st := state.New()
	caller := gen.addrs[0]
	st.SetBalance(contractAddr(1), accountBalance)
	gas := h.shards[1].cfg[0].ChainConfig.GasPerTx
	for i := 0; i < 200; i++ {
		var xerr error
		out.add("contract.execute_us", us(timed("contract.execute", func() {
			sinkResult, xerr = contract.Execute(&contract.Context{
				State: st, Contract: contractAddr(1), Caller: caller, Value: 1, Data: []byte{1}, Gas: gas,
			}, code)
		})))
		if xerr != nil {
			return fmt.Errorf("replay contract: %w", xerr)
		}
	}
	return nil
}

var sinkResult *contract.Result
