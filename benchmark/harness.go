package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"contractshard/internal/chain"
	"contractshard/internal/chainsync"
	"contractshard/internal/crypto"
	"contractshard/internal/node"
	"contractshard/internal/p2p"
	"contractshard/internal/sharding"
	"contractshard/internal/store"
	"contractshard/internal/types"
)

// Fixed shape of every run (ISSUE 11): 12 warm-up slots with the recovery
// drill inside them, then the timed window, then at most settleSlots empty
// slots so the last burns can mint.
const (
	crashAfterSlot = 4
	warmupSlots    = 12
	settleSlots    = 8
	xshardFinality = 2
	// traceGroup is how many consecutive slots a traced run keeps tracing on
	// (then off) for; see proc.trace_overhead_share.
	traceGroup = 5
	// recoverReps repeats the drill's restart phase from the same crash
	// image; recover_s is the median, which a single ~0.2 s sample is too
	// noisy for.
	recoverReps = 3
)

// runConfig is one benchmark run.
type runConfig struct {
	spec spec
	seed int64
	// started is when set-up began: process start for the command, the call
	// for a test.
	started time.Time
	window  time.Duration // wall time of the measured window
	trace   bool
	// windowSlots, when positive, replaces the timed window with a fixed
	// number of slots (the smoke test).
	windowSlots int
	// pinned, when set, is the post-warm-up fingerprint the run must
	// reproduce (seed 1 of the full-size workloads).
	pinned string
	// dir holds the miners' datadirs; the run creates and removes it.
	dir string
}

// shardRun is one shard's live machinery: the generator, its two miners
// (m[0] the producer, m[1] the validator) and their stores.
type shardRun struct {
	id     types.ShardID
	gen    *shardGen
	cfg    [2]node.Config // Store unset; filled per start
	ids    [2]p2p.NodeID
	dirs   [2]string
	m      [2]*node.Miner
	files  [2]*store.FileStore
	traced [2]*tracedStore
	image  string // crash image of m[1]'s datadir, torn tail included

	// Per-slot scratch, owned by the shard's lane during a step.
	batch     []*types.Transaction
	sentAt    []int64
	block     *types.Block
	mineDur   time.Duration
	relayDur  time.Duration
	relayed   int
	submitUS  []float64
	preCrash  []types.Hash
	recovered chainsync.Stats
}

type pendingBurn struct {
	at       int64
	measured bool
}

// slotRec is what one window slot cost, by step.
type slotRec struct {
	traced                         bool
	txs                            int
	submit, gossip, mine, validate time.Duration
	maxMine, maxRelay              time.Duration
}

func (r slotRec) onClock() time.Duration { return r.submit + r.gossip + r.mine + r.validate }

// harness drives one run.
type harness struct {
	cfg        runConfig
	lanes      int
	net        *p2p.Network
	shards     []*shardRun
	randomness types.Hash
	fractions  []sharding.Fraction
	tr         *tracer

	slotNo      int
	pending     map[types.Hash]pendingBurn // burns waiting for their mint, by burn hash
	burnsSent   int
	mintsSeen   int
	latMS       []float64 // submit→confirmed latency of each confirmed window transaction
	attempted   int
	measuring   bool
	retired     []io.Closer // stores of crashed miners, closed when the run ends
	recoverS    []float64
	recoverWall time.Duration
	openMS      []float64
	catchupMS   []float64
	liveHeap    uint64
	fingerprint string
}

// newHarness generates the keys, fixes the epoch from the seed, builds the
// eight geneses and wires the miners onto one async network.
func newHarness(cfg runConfig) (*harness, error) {
	h := &harness{
		cfg:     cfg,
		lanes:   min(runtime.GOMAXPROCS(0), numShards),
		pending: make(map[types.Hash]pendingBurn),
		tr:      newTracer(procStart),
	}
	gens, err := newGens(cfg.spec.accounts, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Zero link delay, zero loss and duplication: latency is processor time.
	h.net = p2p.NewAsyncNetwork(p2p.AsyncConfig{Seed: cfg.seed, InboxSize: 4096})

	dir := sharding.NewDirectory()
	h.randomness = crypto.HashBytes([]byte(fmt.Sprintf("bench-epoch-%d", cfg.seed)))
	for s := 0; s < numShards; s++ {
		h.fractions = append(h.fractions, sharding.Fraction{Shard: types.ShardID(s), Percent: 100 / numShards})
		sr := &shardRun{id: types.ShardID(s), gen: gens[s]}
		if s > 0 {
			if got := dir.Register(contractAddr(s)); got != sr.id {
				return nil, fmt.Errorf("directory gave contract %d shard %s", s, got)
			}
		}
		h.shards = append(h.shards, sr)
	}
	minerKeys, err := h.assignMiners()
	if err != nil {
		return nil, err
	}
	for s, sr := range h.shards {
		cc := chain.DefaultConfig(sr.id)
		cc.Difficulty = 16
		cc.MaxBlockTxs = 200
		cc.GasLimit = 200 * cc.GasPerTx
		cc.StateHistory = 4
		cc.CheckpointInterval = 16
		if cfg.spec.compute {
			cc.ExecWorkers = runtime.GOMAXPROCS(0)
		}
		alloc := sr.gen.alloc()
		var code map[types.Address][]byte
		if s > 0 {
			code = map[types.Address][]byte{contractAddr(s): cfg.spec.contractCode(s)}
		}
		for i := 0; i < 2; i++ {
			sr.ids[i] = p2p.NodeID(fmt.Sprintf("s%d-m%d", s, i))
			sr.dirs[i] = filepath.Join(cfg.dir, string(sr.ids[i]))
			sr.cfg[i] = node.Config{
				Key: minerKeys[s][i], Shard: sr.id,
				Randomness: h.randomness, Fractions: h.fractions,
				ChainConfig: cc, GenesisAlloc: alloc, Contracts: code,
				Directory: dir, XShardFinality: xshardFinality,
				// The drill's CatchUp shares two cores with nothing else, but a
				// loaded CI box must not turn a slow reply into a timeout.
				Sync: chainsync.Config{Seed: cfg.seed + int64(2*s+i), Timeout: 5 * time.Second},
			}
			if _, err := h.start(sr, i, sr.dirs[i]); err != nil {
				return nil, err
			}
		}
	}
	return h, nil
}

// verifyMember is the Sec. III-C membership check under the run's epoch.
func (h *harness) verifyMember(hd *types.Header) error {
	return sharding.VerifyMembership(hd, h.randomness, h.fractions)
}

// assignMiners scans "bench-miner-<i>" keys through the Sec. III-B
// assignment until every shard has two, so every block passes the real
// membership check.
func (h *harness) assignMiners() ([numShards][]*crypto.Keypair, error) {
	var out [numShards][]*crypto.Keypair
	need := 2 * numShards
	for i := 0; need > 0; i++ {
		if i > 10000 {
			return out, errors.New("no miner assignment found in 10000 keys")
		}
		k := crypto.KeypairFromSeed(fmt.Sprintf("bench-miner-%d", i))
		s, err := sharding.AssignMiner(h.randomness, k.Public, h.fractions)
		if err != nil {
			return out, err
		}
		if len(out[s]) < 2 {
			out[s] = append(out[s], k)
			need--
		}
	}
	return out, nil
}

// start opens the datadir and joins miner i of the shard to the network; it
// returns how long store.Open took.
func (h *harness) start(sr *shardRun, i int, dir string) (time.Duration, error) {
	t := time.Now()
	fs, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	opened := time.Since(t)
	c := sr.cfg[i]
	c.Store = fs
	if h.cfg.trace {
		sr.traced[i] = &tracedStore{Store: fs, t: h.tr}
		c.Store = sr.traced[i]
	}
	m, err := node.New(h.net, sr.ids[i], c)
	if err != nil {
		return 0, errors.Join(err, fs.Close())
	}
	sr.m[i], sr.files[i] = m, fs
	return opened, nil
}

// close stops the network and releases every store.
func (h *harness) close() error {
	h.net.Close()
	var errs []error
	for _, sr := range h.shards {
		for _, fs := range sr.files {
			if fs != nil {
				errs = append(errs, fs.Close())
			}
		}
	}
	for _, c := range h.retired {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// eachShard runs fn over the shards on the lane goroutines: shard i belongs
// to lane i mod lanes, and a lane visits its shards in order.
func (h *harness) eachShard(fn func(*shardRun) error) error {
	errs := make([]error, h.lanes)
	var wg sync.WaitGroup
	for l := 0; l < h.lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < len(h.shards); i += h.lanes {
				if err := fn(h.shards[i]); err != nil {
					errs[l] = fmt.Errorf("shard %d: %w", i, err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// slot runs one slot: sign the batches off the clock, then submit, settle,
// mine and relay, settle again and check that each shard's miners agree.
// With empty set the slot submits nothing (settle slots).
func (h *harness) slot(empty bool) (slotRec, error) {
	h.slotNo++
	h.tr.slot.Store(int32(h.slotNo))
	rec := slotRec{traced: h.tr.on.Load()}

	err := h.eachShard(func(sr *shardRun) error {
		sr.batch = sr.batch[:0]
		if empty {
			return nil
		}
		next := h.shards[1+sr.gen.shard%(numShards-1)]
		var err error
		sr.batch, err = sr.gen.batch(h.cfg.spec, next.gen)
		return err
	})
	if err != nil {
		return rec, err
	}

	root := h.tr.begin("slot", 0)
	h.tr.ambient.Store(root)
	start := time.Now()

	// (1) submit to the validator, so the producer hears of every
	// transaction over gossip; while validators are down, to the producer.
	err = h.eachShard(func(sr *shardRun) error {
		target := sr.m[1]
		if target == nil {
			target = sr.m[0]
		}
		id := h.tr.begin("node.submit", root)
		sr.sentAt = sr.sentAt[:0]
		for _, tx := range sr.batch {
			at := h.tr.now()
			if err := target.SubmitTx(tx); err != nil {
				return fmt.Errorf("SubmitTx refused %s: %w", tx.Hash(), err)
			}
			if id != 0 {
				sr.submitUS = append(sr.submitUS, float64(h.tr.now()-at)/1e3)
			}
			sr.sentAt = append(sr.sentAt, at)
		}
		h.tr.end(id)
		return nil
	})
	if err != nil {
		return rec, err
	}
	rec.submit = time.Since(start)

	// (2) gossip_settle.
	t := time.Now()
	id := h.tr.begin("p2p.gossip_settle", root)
	h.net.Drain()
	h.tr.end(id)
	rec.gossip = time.Since(t)

	// (3) mine, then relay. The barrier between the two keeps block contents
	// independent of lane interleaving: a mint relayed by one lane can never
	// race another lane's Mine of the destination shard.
	t = time.Now()
	err = h.eachShard(func(sr *shardRun) error {
		id := h.tr.begin("node.mine", root)
		if ts := sr.traced[0]; ts != nil {
			ts.parent.Store(id)
			defer ts.parent.Store(0)
		}
		t := time.Now()
		blk, err := sr.m[0].Mine()
		sr.mineDur = time.Since(t)
		h.tr.end(id)
		sr.block = blk
		return err
	})
	if err != nil {
		return rec, err
	}
	err = h.eachShard(func(sr *shardRun) error {
		id := h.tr.begin("node.relay", root)
		t := time.Now()
		n, err := sr.m[0].RelayXShard()
		sr.relayDur, sr.relayed = time.Since(t), n
		h.tr.end(id)
		return err
	})
	if err != nil {
		return rec, err
	}
	rec.mine = time.Since(t)

	// (4) validate_settle, then the agreement check.
	t = time.Now()
	id = h.tr.begin("p2p.validate_settle", root)
	h.tr.ambient.Store(id)
	h.net.Drain()
	h.tr.end(id)
	for _, sr := range h.shards {
		if sr.m[1] != nil && sr.m[1].Head().Hash() != sr.block.Hash() {
			return rec, fmt.Errorf("shard %s: validator head %s, producer mined %s",
				sr.id, sr.m[1].Head().Hash(), sr.block.Hash())
		}
	}
	rec.validate = time.Since(t)
	h.tr.end(root)
	h.tr.ambient.Store(0)

	rec.txs, err = h.confirm(h.tr.now())
	for _, sr := range h.shards {
		rec.maxMine = max(rec.maxMine, sr.mineDur)
		if sr.relayed > 0 {
			rec.maxRelay = max(rec.maxRelay, sr.relayDur)
		}
	}
	return rec, err
}

// confirm does the slot's bookkeeping off the clock: every batch
// transaction must be in its shard's block, intra-shard transactions are
// confirmed now, and a burn is confirmed when its mint shows up in a block
// of the destination shard. It returns the number of transactions submitted.
func (h *harness) confirm(end int64) (int, error) {
	sent := 0
	for _, sr := range h.shards {
		in := make(map[types.Hash]struct{}, len(sr.block.Txs))
		for _, tx := range sr.block.Txs {
			in[tx.Hash()] = struct{}{}
			if tx.Kind != types.TxXShardMint {
				continue
			}
			h.mintsSeen++
			bh := tx.Mint.Burn.Hash()
			p, ok := h.pending[bh]
			if !ok {
				return 0, fmt.Errorf("shard %s: mint for unknown or already minted burn %s", sr.id, bh)
			}
			delete(h.pending, bh)
			if p.measured {
				h.latMS = append(h.latMS, float64(end-p.at)/1e6)
			}
		}
		for i, tx := range sr.batch {
			if _, ok := in[tx.Hash()]; !ok {
				return 0, fmt.Errorf("shard %s slot %d: block %d holds %d txs but not batch tx %d of %d",
					sr.id, h.slotNo, sr.block.Number(), len(sr.block.Txs), i, len(sr.batch))
			}
			if h.measuring {
				h.attempted++
			}
			if tx.Kind == types.TxXShardBurn {
				h.burnsSent++
				h.pending[tx.Hash()] = pendingBurn{at: sr.sentAt[i], measured: h.measuring}
			} else if h.measuring {
				h.latMS = append(h.latMS, float64(end-sr.sentAt[i])/1e6)
			}
		}
		sent += len(sr.batch)
		if h.slotNo <= crashAfterSlot {
			sr.preCrash = append(sr.preCrash, sr.block.Hash())
		}
	}
	return sent, nil
}

// warmup runs the 12 fixed slots with the recovery drill inside them, then
// takes the heap reading and the state-root fingerprint.
func (h *harness) warmup() error {
	for s := 1; s <= warmupSlots; s++ {
		if _, err := h.slot(false); err != nil {
			return fmt.Errorf("warm-up slot %d: %w", s, err)
		}
		if s == crashAfterSlot {
			if err := h.crashValidators(); err != nil {
				return fmt.Errorf("crash: %w", err)
			}
		}
	}
	t := time.Now()
	if err := h.recoverValidators(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	h.recoverWall = time.Since(t)
	if err := h.agree(); err != nil {
		return err
	}

	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them, so the reading does not depend on pool state.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.liveHeap = ms.HeapAlloc

	sum := sha256.New()
	for _, sr := range h.shards {
		head := sr.m[0].Head()
		var id [8]byte
		binary.BigEndian.PutUint64(id[:], uint64(sr.id))
		sum.Write(id[:])
		sum.Write(head.Hash().Bytes())
		sum.Write(head.Header.StateRoot.Bytes())
	}
	h.fingerprint = hex.EncodeToString(sum.Sum(nil))
	if want := h.cfg.pinned; want != "" && h.fingerprint != want {
		return fmt.Errorf("post-warm-up state-root fingerprint %s differs from the pinned %s", h.fingerprint, want)
	}
	return nil
}

// crashValidators kills m[1] of every shard the way kill -9 would: it
// leaves the network, nothing is flushed or closed, and what the restart
// will see is a byte copy of the datadir whose last block record is cut in
// half.
func (h *harness) crashValidators() error {
	for _, sr := range h.shards {
		if st := sr.m[1].Stats(); st.BlocksRejected > 0 || st.BlocksOrphaned > 0 {
			return fmt.Errorf("shard %s validator rejected %d, orphaned %d blocks before the crash",
				sr.id, st.BlocksRejected, st.BlocksOrphaned)
		}
		sr.image = sr.dirs[1] + "-crashed"
		if err := copyDir(sr.dirs[1], sr.image); err != nil {
			return err
		}
		if err := tearLastRecord(filepath.Join(sr.image, store.BlocksLogName)); err != nil {
			return err
		}
		h.dropValidator(sr)
	}
	return nil
}

// dropValidator takes m[1] off the network and forgets it without Close or
// Flush; only its store handle is kept, to be released when the run ends.
func (h *harness) dropValidator(sr *shardRun) {
	h.net.Leave(sr.ids[1])
	h.retired = append(h.retired, sr.files[1])
	sr.m[1], sr.files[1], sr.traced[1] = nil, nil, nil
}

// recoverValidators restarts each m[1] in turn from a fresh copy of its
// crash image: store.Open + node.New (log replay, torn-tail truncation,
// header-book re-attach) + CatchUp from the shard's producer. The phase is
// repeated recoverReps times; the last set of validators serves the window.
func (h *harness) recoverValidators() error {
	for rep := 0; rep < recoverReps; rep++ {
		var total time.Duration
		for _, sr := range h.shards {
			if sr.m[1] != nil {
				h.dropValidator(sr)
			}
			dir := fmt.Sprintf("%s-restart%d", sr.dirs[1], rep)
			if err := copyDir(sr.image, dir); err != nil {
				return err
			}
			t := time.Now()
			opened, err := h.start(sr, 1, dir)
			if err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := sr.m[1].CatchUp(); err != nil {
				return fmt.Errorf("shard %s CatchUp: %w", sr.id, err)
			}
			total += time.Since(t)
			h.openMS = append(h.openMS, ms(opened))
			h.catchupMS = append(h.catchupMS, ms(time.Since(t2)))
			sr.recovered = sr.m[1].SyncStats()
			if err := h.checkRecovered(sr); err != nil {
				return err
			}
		}
		h.recoverS = append(h.recoverS, total.Seconds())
	}
	return nil
}

// checkRecovered asserts the restarted validator is where the producer is
// and that its log holds every block confirmed before the crash.
func (h *harness) checkRecovered(sr *shardRun) error {
	got, want := sr.m[1].Head(), sr.m[0].Head()
	if got.Hash() != want.Hash() || got.Header.StateRoot != want.Header.StateRoot {
		return fmt.Errorf("shard %s: recovered validator at %d/%s, producer at %d/%s",
			sr.id, got.Number(), got.Hash(), want.Number(), want.Hash())
	}
	have := map[types.Hash]bool{}
	err := sr.files[1].Blocks(func(_ int, raw []byte) error {
		b, err := types.DecodeBlock(raw)
		if err != nil {
			return err
		}
		have[b.Hash()] = true
		return nil
	})
	if err != nil {
		return err
	}
	for n, bh := range sr.preCrash {
		if !have[bh] {
			return fmt.Errorf("shard %s: recovered validator lost pre-crash block %d (%s)", sr.id, n+1, bh)
		}
	}
	return nil
}

// agree is the end-state half of the correctness gate: on every shard both
// miners hold the same head and state root, and no live miner rejected or
// orphaned a block.
func (h *harness) agree() error {
	for _, sr := range h.shards {
		a, b := sr.m[0].Head(), sr.m[1].Head()
		if a.Hash() != b.Hash() || a.Header.StateRoot != b.Header.StateRoot {
			return fmt.Errorf("shard %s: miners disagree: %s/%s vs %s/%s",
				sr.id, a.Hash(), a.Header.StateRoot, b.Hash(), b.Header.StateRoot)
		}
		for i, m := range sr.m {
			if st := m.Stats(); st.BlocksRejected > 0 || st.BlocksOrphaned > 0 {
				return fmt.Errorf("shard %s m%d: %d blocks rejected, %d orphaned", sr.id, i, st.BlocksRejected, st.BlocksOrphaned)
			}
		}
	}
	if d := h.net.Stats().Dropped; d > 0 {
		return fmt.Errorf("p2p dropped %d messages", d)
	}
	return nil
}

// copyDir byte-copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// tearLastRecord cuts the last record of a store log in half. The framing
// (internal/store/record.go) is length(4, big-endian) || crc32c(4) || payload.
func tearLastRecord(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	const header = 8
	last, off := -1, 0
	for off+header <= len(data) {
		n := int(binary.BigEndian.Uint32(data[off:]))
		if off+header+n > len(data) {
			break
		}
		last = off
		off += header + n
	}
	if last < 0 || off != len(data) {
		return fmt.Errorf("%s: no whole last record to tear (%d of %d bytes framed)", path, off, len(data))
	}
	return os.Truncate(path, int64(last+(off-last)/2))
}
