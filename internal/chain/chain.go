// Package chain implements the per-shard blockchain: block validation,
// transaction execution, fork choice and the ledger each miner keeps.
//
// In the paper's design every shard runs an ordinary PoW chain — the
// consensus inside a shard is untouched go-Ethereum (Sec. VI-A) — and all
// sharding logic (which transactions a chain accepts, which miners may
// extend it) layers on top. This package therefore mirrors a simplified
// geth: headers carry a ShardID, a block credits its coinbase the block
// reward plus the fees of the transactions it confirms, and an empty block
// still earns the block reward, which is exactly the incentive that makes
// small shards waste mining power on empty blocks (Sec. III-D).
package chain

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"contractshard/internal/contract"
	"contractshard/internal/crypto"
	"contractshard/internal/exec"
	"contractshard/internal/mempool"
	"contractshard/internal/pow"
	"contractshard/internal/state"
	"contractshard/internal/store"
	"contractshard/internal/types"
	"contractshard/internal/xshard"
)

// Validation errors.
var (
	ErrUnknownParent    = errors.New("chain: unknown parent block")
	ErrKnownBlock       = errors.New("chain: block already known")
	ErrBadNumber        = errors.New("chain: block number does not follow parent")
	ErrWrongShard       = errors.New("chain: block belongs to another shard")
	ErrBadSeal          = errors.New("chain: invalid proof of work")
	ErrBadDifficulty    = errors.New("chain: wrong difficulty")
	ErrBadStateRoot     = errors.New("chain: state root mismatch")
	ErrBadTxRoot        = errors.New("chain: transaction root mismatch")
	ErrBadGasUsed       = errors.New("chain: gas used mismatch")
	ErrGasLimit         = errors.New("chain: block exceeds gas limit")
	ErrTooManyTxs       = errors.New("chain: block exceeds transaction count limit")
	ErrInvalidTx        = errors.New("chain: block contains an invalid transaction")
	ErrBadSignature     = errors.New("chain: bad transaction signature")
	ErrBadNonce         = errors.New("chain: bad transaction nonce")
	ErrInsufficient     = errors.New("chain: insufficient balance for value plus fee")
	ErrNonMonotonicTime = errors.New("chain: block time before parent")
	ErrTDOverflow       = errors.New("chain: total difficulty overflows uint64")
	ErrGasOverflow      = errors.New("chain: block gas total overflows uint64")
)

// addTD extends a parent's total difficulty by one block's difficulty,
// rejecting uint64 wraparound: a wrapped TD would make an adversarial
// heavy chain compare as lighter than the honest head and corrupt fork
// choice silently.
func addTD(parentTD, difficulty uint64) (uint64, error) {
	sum, carry := bits.Add64(parentTD, difficulty, 0)
	if carry != 0 {
		return 0, fmt.Errorf("%w: %d + %d", ErrTDOverflow, parentTD, difficulty)
	}
	return sum, nil
}

// Config fixes a shard chain's consensus parameters. The defaults mirror the
// paper's testbed: gas limit 0x300000 holding at most ten transactions per
// block (Sec. VI-A).
type Config struct {
	ShardID types.ShardID
	// Difficulty is the fixed PoW difficulty when TargetInterval is zero,
	// or the genesis difficulty when retargeting is enabled.
	Difficulty uint64
	// TargetInterval, in seconds, enables difficulty retargeting toward the
	// given block interval when positive.
	TargetInterval float64
	GasLimit       uint64
	MaxBlockTxs    int
	BlockReward    uint64
	// GasPerTx is the execution budget granted to a contract call when the
	// transaction does not set one.
	GasPerTx uint64
	// ExecWorkers selects the block-body execution engine: 0 or 1 executes
	// transactions serially (the reference semantics), larger values enable
	// the optimistic parallel engine (internal/exec) with that many
	// speculation workers, capped at GOMAXPROCS. The parallel engine is
	// bit-identical to serial — same state roots, same receipts — so the
	// knob is purely a performance choice (see DESIGN.md "Parallel
	// intra-shard execution").
	ExecWorkers int

	// StateHistory, when positive, bounds the resident full post-states:
	// only the last StateHistory canonical blocks keep their state in
	// memory, plus genesis and the periodic checkpoints below. Older states
	// are rebuilt on demand by replaying block bodies from the nearest
	// resident ancestor (DESIGN.md "Durable storage and recovery
	// invariants"). 0 keeps every block's state resident — the original
	// behavior, and still the default for short-lived test chains.
	StateHistory int
	// CheckpointInterval is the flat-state checkpoint cadence in blocks:
	// the state of every canonical block at a multiple of this height stays
	// resident (and is persisted to the Store when one is configured),
	// bounding replay depth for deep StateAt queries and crash recovery.
	// When StateHistory is positive and this is 0 it defaults to
	// DefaultCheckpointInterval.
	CheckpointInterval uint64
	// FinalityDepth, when positive, prunes non-canonical fork entries
	// buried more than this many blocks below the head: their states,
	// bodies and transaction-index references are reclaimed. A pruned-depth
	// reorg is assumed impossible (the same assumption every finality
	// heuristic makes). 0 retains forks forever — the original behavior.
	FinalityDepth uint64
	// Store, when set, persists the chain: every linked block is appended
	// to the store's block log and checkpoints land in its key-value
	// backend, so a crashed node reopens the same Store and recovers its
	// ledger instead of restarting from genesis. nil keeps the chain purely
	// in-memory.
	Store store.Store
	// XShard, when set, enables cross-shard receipt redemption: mint
	// transactions are valid only if the header chain they carry passes
	// the book's deterministic verification (PoW + membership hook + the
	// shard's finality depth of descendants). The book caches verdicts;
	// attach it to the same Store BEFORE the chain is constructed, so
	// crash recovery — which replays block bodies, including mints —
	// reuses and persists the cache. nil rejects every mint, keeping
	// single-shard chains closed.
	XShard *xshard.HeaderBook
	// OnReorg, when set, receives the transactions of formerly canonical
	// blocks that a head switch abandoned and the new branch does not
	// re-include. The node re-injects them into its mempool — like
	// go-Ethereum — so a reorged-out transaction (in particular a
	// cross-shard mint, whose source relay has already advanced past its
	// burn) is re-mined on the winning branch instead of stranded. Called
	// after the new head is published, outside the chain lock; never
	// called during crash-recovery replay.
	OnReorg func(dropped []*types.Transaction)
}

// DefaultCheckpointInterval is the checkpoint cadence used when bounded
// state history is enabled without an explicit interval.
const DefaultCheckpointInterval = 64

// DefaultConfig returns the paper's testbed parameters for a shard.
func DefaultConfig(shard types.ShardID) Config {
	return Config{
		ShardID:     shard,
		Difficulty:  pow.DifficultySlow,
		GasLimit:    0x300000,
		MaxBlockTxs: 10,
		BlockReward: 2_000_000, // 2 ETH in simulation units
		GasPerTx:    0x300000 / 10,
	}
}

// blockEntry is one stored block with everything AddBlock derived for it.
// Every field except state is immutable once the entry is published into
// Chain.blocks: fully written before linking under the write lock. The
// state field is a *reference slot*: the State object it points to is
// itself immutable with a memoized root (AddBlock's state-root check
// computes it), so a reader that captured the pointer under c.mu may Copy()
// it without any lock — but the slot may be swapped to nil by state
// eviction (bounded StateHistory) or refilled by checkpoint recovery, both
// under the write lock. Readers must therefore capture the pointer while
// holding c.mu and never re-read entry.state outside it.
type blockEntry struct {
	block    *types.Block
	state    *state.State // post-state reference; nil when evicted
	td       uint64       // total difficulty up to and including this block
	receipts []*types.Receipt
}

// canonEntry is one height of the canonical-number index: the canonical
// block hash at that height plus cumulative counters over the canonical
// prefix ending there, so chain-wide aggregates are O(1) reads instead of
// O(n) head-to-genesis walks.
type canonEntry struct {
	hash     types.Hash
	cumTxs   int // transactions confirmed on the canonical chain through this height
	cumEmpty int // empty non-genesis canonical blocks through this height
}

// txRef locates one inclusion of a transaction: the containing block and the
// transaction's position in its body. A transaction mined on competing forks
// has one ref per containing block; which ref is *canonical* is decided at
// query time against the number index, so the tx index itself is append-only
// and needs no maintenance on reorgs.
type txRef struct {
	block types.Hash
	index int
}

// Chain is one shard's ledger. It is safe for concurrent use.
//
// Lock discipline (see DESIGN.md "Chain lock discipline"): c.mu guards the
// blocks map, head, and the canon/tx indexes. AddBlock is a staged pipeline
// that holds the lock only briefly — stateless checks and body re-execution
// run lock-free against immutable published entries, and only the final
// TOCTOU re-check + linking takes the write lock — so block validations of
// distinct blocks overlap with each other and with every reader.
type Chain struct {
	mu      sync.RWMutex
	cfg     Config
	blocks  map[types.Hash]*blockEntry
	head    types.Hash
	genesis types.Hash
	// canon[n] is the canonical block at height n; canon[len-1] is the head.
	// Rewritten atomically (under the write lock) when fork choice moves the
	// head, including total-difficulty tie-break flips.
	canon []canonEntry
	// txIndex maps a transaction hash to every stored block containing it,
	// canonical or not.
	txIndex map[types.Hash][]txRef
	// byNumber lists every stored block hash (canonical and forks) at each
	// height, feeding state eviction and fork pruning without full-map
	// walks.
	//shardlint:growbound per-height index of the block store itself: pruneForksLocked trims each slot to the canonical hash, so size tracks stored blocks, not history
	byNumber map[uint64][]types.Hash

	// evictFloor and pruneFloor are watermarks: heights below them have
	// already been swept by state eviction / fork pruning, so each new head
	// only pays for the heights that newly crossed a boundary.
	evictFloor uint64
	pruneFloor uint64
	// recovering is true while openStore replays the block log, so link
	// does not re-append recovered blocks to the store. Set only during
	// construction, before the chain is shared.
	recovering bool
	// storeErr is the first background persistence failure (checkpoint
	// writes happen after a block is already linked, so they cannot fail
	// AddBlock retroactively); surfaced by Flush and Close.
	storeErr error
}

// New creates a chain whose genesis state holds the given balances. When
// cfg.Store is set and already holds blocks, the stored ledger is recovered
// (see openStore in storage.go).
func New(cfg Config, alloc map[types.Address]uint64) (*Chain, error) {
	return NewWithContracts(cfg, alloc, nil)
}

// NewWithContracts creates a chain whose genesis state additionally has the
// given contract code pre-deployed, the way the paper's evaluation registers
// its transfer contracts before injecting transactions (Sec. VI-A). When
// cfg.Store is set, any previously persisted blocks are replayed and the
// chain resumes at its recovered head.
func NewWithContracts(cfg Config, alloc map[types.Address]uint64, code map[types.Address][]byte) (*Chain, error) {
	c, err := newMemChain(cfg, alloc, code)
	if err != nil {
		return nil, err
	}
	if err := c.openStore(); err != nil {
		return nil, err
	}
	return c, nil
}

// newMemChain builds the genesis-only in-memory chain; storage attach and
// recovery happen afterwards, once the genesis hash is final.
func newMemChain(cfg Config, alloc map[types.Address]uint64, code map[types.Address][]byte) (*Chain, error) {
	if cfg.GasLimit == 0 {
		cfg.GasLimit = 0x300000
	}
	if cfg.MaxBlockTxs <= 0 {
		cfg.MaxBlockTxs = 10
	}
	if cfg.Difficulty == 0 {
		cfg.Difficulty = pow.MinDifficulty
	}
	if cfg.GasPerTx == 0 {
		cfg.GasPerTx = cfg.GasLimit / uint64(cfg.MaxBlockTxs)
	}
	if cfg.StateHistory > 0 && cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointInterval
	}
	st := state.New()
	// The genesis hash commits to this state, so apply the alloc and code in
	// sorted address order rather than map order.
	for _, addr := range sortedAddrKeys(alloc) {
		if err := st.AddBalance(addr, alloc[addr]); err != nil {
			return nil, fmt.Errorf("chain: genesis alloc: %w", err)
		}
	}
	for _, addr := range sortedAddrKeys(code) {
		st.SetCode(addr, code[addr])
	}
	st.DiscardJournal()
	genesis := &types.Block{Header: &types.Header{
		Number:     0,
		Difficulty: cfg.Difficulty,
		StateRoot:  st.Root(),
		ShardID:    cfg.ShardID,
		GasLimit:   cfg.GasLimit,
	}}
	c := &Chain{
		cfg:      cfg,
		blocks:   make(map[types.Hash]*blockEntry),
		txIndex:  make(map[types.Hash][]txRef),
		byNumber: make(map[uint64][]types.Hash),
	}
	h := genesis.Hash()
	c.blocks[h] = &blockEntry{block: genesis, state: st, td: cfg.Difficulty}
	c.head = h
	c.genesis = h
	c.canon = []canonEntry{{hash: h}}
	c.byNumber[0] = []types.Hash{h}
	return c, nil
}

// sortedAddrKeys returns the map's address keys in ascending order, so
// genesis construction applies them deterministically.
func sortedAddrKeys[V any](m map[types.Address]V) []types.Address {
	keys := make([]types.Address, 0, len(m))
	for addr := range m {
		keys = append(keys, addr)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	return keys
}

// sealHeader runs the PoW search with a budget scaled to the difficulty.
func sealHeader(h *types.Header) error { return pow.Seal(h, sealBudget(h.Difficulty)) }

// Config returns the chain's configuration.
func (c *Chain) Config() Config { return c.cfg }

// Genesis returns the genesis block.
func (c *Chain) Genesis() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[c.genesis].block
}

// Head returns the current head block.
func (c *Chain) Head() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[c.head].block
}

// Height returns the head block number.
func (c *Chain) Height() uint64 { return c.Head().Number() }

// GetBlock returns a block by hash, or nil.
func (c *Chain) GetBlock(h types.Hash) *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.blocks[h]; ok {
		return e.block
	}
	return nil
}

// HasBlock reports whether the chain knows the block.
func (c *Chain) HasBlock(h types.Hash) bool { return c.GetBlock(h) != nil }

// StateAt returns a copy of the post-state of the block with hash h, or nil
// when the block is unknown. Mutating the copy does not affect the chain.
//
// With bounded state history the block's state may have been evicted; it is
// then rebuilt by replaying block bodies from the nearest resident ancestor
// (genesis, a checkpoint, or a hot block), with every replayed block's
// state root re-verified against its header. Resident states answer in
// O(copy); evicted ones cost one bounded replay.
func (c *Chain) StateAt(h types.Hash) *state.State {
	c.mu.RLock()
	e, ok := c.blocks[h]
	var st *state.State
	if ok {
		st = e.state
	}
	c.mu.RUnlock()
	if !ok {
		return nil
	}
	if st != nil {
		return st.Copy()
	}
	rebuilt, err := c.rebuildState(h)
	if err != nil {
		return nil
	}
	return rebuilt
}

// HeadState returns a copy of the state at the head block. Head lookup and
// state copy happen under one lock so a concurrent AddBlock cannot slide
// the head between the two reads.
func (c *Chain) HeadState() *state.State {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[c.head].state.Copy()
}

// HeadSnapshot returns the head block together with a copy of its
// post-state as one atomic read — what concurrent callers (the node runtime
// under asynchronous delivery) need to reason about a consistent
// block/state pair.
func (c *Chain) HeadSnapshot() (*types.Block, *state.State) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := c.blocks[c.head]
	return e.block, e.state.Copy()
}

// CanonicalBlocks returns the canonical chain from genesis to head, served
// from the number index (no parent-hash re-walk).
func (c *Chain) CanonicalBlocks() []*types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*types.Block, len(c.canon))
	for i, ce := range c.canon {
		out[i] = c.blocks[ce.hash].block
	}
	return out
}

// CanonicalHashAt returns the canonical block hash at height n, or false
// when n is past the head.
func (c *Chain) CanonicalHashAt(n uint64) (types.Hash, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n >= uint64(len(c.canon)) {
		return types.Hash{}, false
	}
	return c.canon[n].hash, true
}

// isCanonical reports whether b lies on the canonical chain. Caller holds
// c.mu (read or write).
func (c *Chain) isCanonical(b *types.Block) bool {
	n := b.Number()
	return n < uint64(len(c.canon)) && c.canon[n].hash == b.Hash()
}

// EmptyBlockCount counts canonical blocks that confirm no transactions,
// excluding genesis. This is the waste metric of Fig. 3(b), 3(c), 3(f).
// Served from the head's cumulative counter: O(1).
func (c *Chain) EmptyBlockCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.canon[len(c.canon)-1].cumEmpty
}

// ConfirmedTxCount counts transactions confirmed on the canonical chain.
// Served from the head's cumulative counter: O(1).
func (c *Chain) ConfirmedTxCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.canon[len(c.canon)-1].cumTxs
}

// expectedDifficulty returns the difficulty a child of parent must declare.
func (c *Chain) expectedDifficulty(parent *types.Header, childTime uint64) uint64 {
	if c.cfg.TargetInterval <= 0 {
		return c.cfg.Difficulty
	}
	interval := float64(childTime-parent.Time) / 1000.0
	return pow.Retarget(parent.Difficulty, interval, c.cfg.TargetInterval)
}

// AddBlock validates the block against its parent and stores it, updating
// the head when the block extends the heaviest chain. Sibling blocks are
// retained so a later heavier branch can win (longest-chain fork choice).
//
// Validation is a staged pipeline so distinct blocks on distinct parents
// validate concurrently and readers never queue behind a slow block:
//
//	stage 1 — a brief read lock resolves the parent entry, then the
//	          stateless checks (number, shard, time, difficulty, PoW seal,
//	          tx root, tx count) run lock-free against the parent's
//	          immutable header;
//	stage 2 — the body re-executes lock-free on a copy of the parent's
//	          immutable post-state;
//	stage 3 — a short exclusive section re-checks the TOCTOU conditions
//	          (block still unknown, parent still present) and links the
//	          entry, updating fork choice and the indexes.
//
// Two concurrent calls for the same block both pay for validation, but
// exactly one links it; the other returns ErrKnownBlock from the stage-3
// re-check, so callers' duplicate accounting stays exact.
func (c *Chain) AddBlock(b *types.Block) error {
	h := b.Hash()

	// The parent's state pointer is captured under the same read lock as the
	// entry: eviction may swap the entry's slot to nil at any time, but the
	// State object a captured pointer refers to is immutable, so stage 2 can
	// execute against it lock-free.
	c.mu.RLock()
	_, known := c.blocks[h]
	parent, haveParent := c.blocks[b.Header.ParentHash]
	var pstate *state.State
	if haveParent {
		pstate = parent.state
	}
	c.mu.RUnlock()
	if known {
		return fmt.Errorf("%w: %s", ErrKnownBlock, h)
	}
	if !haveParent {
		return fmt.Errorf("%w: %s", ErrUnknownParent, b.Header.ParentHash)
	}

	if err := c.validateStateless(b, parent.block.Header); err != nil {
		return err
	}
	if pstate == nil {
		// The parent's state was evicted (a deep fork attach, or the first
		// block after crash recovery): rebuild it by replay before the body
		// can execute.
		rebuilt, err := c.rebuildState(b.Header.ParentHash)
		if err != nil {
			return err
		}
		pstate = rebuilt
	}
	entry, err := c.executeBody(b, parent, pstate)
	if err != nil {
		return err
	}
	dropped, err := c.link(h, entry)
	if err != nil {
		return err
	}
	if len(dropped) > 0 {
		c.cfg.OnReorg(dropped)
	}
	return nil
}

// validateStateless runs the stage-1 checks: everything decidable from the
// block and its parent's header alone. The parent entry is immutable once
// published, so no lock is held.
func (c *Chain) validateStateless(b *types.Block, parent *types.Header) error {
	if b.Number() != parent.Number+1 {
		return fmt.Errorf("%w: %d after %d", ErrBadNumber, b.Number(), parent.Number)
	}
	if b.ShardID() != c.cfg.ShardID {
		return fmt.Errorf("%w: got %s want %s", ErrWrongShard, b.ShardID(), c.cfg.ShardID)
	}
	if b.Header.Time < parent.Time {
		return fmt.Errorf("%w: %d < %d", ErrNonMonotonicTime, b.Header.Time, parent.Time)
	}
	if want := c.expectedDifficulty(parent, b.Header.Time); b.Header.Difficulty != want {
		return fmt.Errorf("%w: got %d want %d", ErrBadDifficulty, b.Header.Difficulty, want)
	}
	if !pow.Verify(b.Header) {
		return ErrBadSeal
	}
	if got := types.TxRoot(b.Txs); got != b.Header.TxRoot {
		return fmt.Errorf("%w: got %s", ErrBadTxRoot, got)
	}
	if len(b.Txs) > c.cfg.MaxBlockTxs {
		return fmt.Errorf("%w: %d txs", ErrTooManyTxs, len(b.Txs))
	}
	return nil
}

// executeBody runs stage 2: re-execute the block body on a copy of the
// parent's post-state and verify the declared gas and state root. pstate is
// the parent's post-state as captured (or rebuilt) by AddBlock — immutable
// with a memoized root, so Copy is a pure read and no lock is held. This is
// the expensive part of validation and it overlaps freely with other
// validations and with readers.
func (c *Chain) executeBody(b *types.Block, parent *blockEntry, pstate *state.State) (*blockEntry, error) {
	st := pstate.Copy()
	receipts, gasUsed, err := c.process(st, b.Txs, b.Header.Coinbase)
	if err != nil {
		return nil, err
	}
	for _, r := range receipts {
		if r.Status == types.ReceiptInvalid {
			return nil, fmt.Errorf("%w: %s (%s)", ErrInvalidTx, r.TxHash, r.Err)
		}
	}
	if gasUsed > c.cfg.GasLimit {
		return nil, fmt.Errorf("%w: %d > %d", ErrGasLimit, gasUsed, c.cfg.GasLimit)
	}
	if gasUsed != b.Header.GasUsed {
		return nil, fmt.Errorf("%w: got %d declared %d", ErrBadGasUsed, gasUsed, b.Header.GasUsed)
	}
	// The root check also memoizes st's root, keeping the published-state
	// invariant that later lock-free Copy calls are pure reads.
	if root := st.Root(); root != b.Header.StateRoot {
		return nil, fmt.Errorf("%w: got %s declared %s", ErrBadStateRoot, root, b.Header.StateRoot)
	}
	st.DiscardJournal()

	h := b.Hash()
	for _, r := range receipts {
		r.BlockHash = h
		r.BlockNum = b.Number()
	}
	td, err := addTD(parent.td, b.Header.Difficulty)
	if err != nil {
		return nil, err
	}
	return &blockEntry{block: b, state: st, td: td, receipts: receipts}, nil
}

// link runs stage 3: the only exclusive section of AddBlock. It re-checks
// the conditions stage 1 observed (the block may have been linked by a
// concurrent AddBlock since), publishes the entry, and maintains fork
// choice plus the canonical and transaction indexes. The returned slice
// holds reorg-dropped transactions for the caller to hand to cfg.OnReorg
// after the lock is released (hook code must not run under c.mu).
func (c *Chain) link(h types.Hash, entry *blockEntry) ([]*types.Transaction, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.blocks[h]; ok {
		return nil, fmt.Errorf("%w: %s", ErrKnownBlock, h)
	}
	if _, ok := c.blocks[entry.block.Header.ParentHash]; !ok {
		// Reachable when fork pruning reclaimed the parent between stage 1
		// and here (a block attaching below the finality horizon); also
		// keeps stage 3 correct on its own terms.
		return nil, fmt.Errorf("%w: %s", ErrUnknownParent, entry.block.Header.ParentHash)
	}
	// Persist before publishing: if the append fails the block is rejected
	// whole, so the log never lags a block the in-memory chain serves. The
	// log therefore always holds parents before children — link order is
	// serialized by this lock and a child only reaches stage 3 after its
	// parent published.
	if c.cfg.Store != nil && !c.recovering {
		if err := c.cfg.Store.AppendBlock(entry.block.Encode()); err != nil {
			return nil, fmt.Errorf("chain: persisting block: %w", err)
		}
	}
	c.blocks[h] = entry
	n := entry.block.Number()
	c.byNumber[n] = append(c.byNumber[n], h)
	for i, tx := range entry.block.Txs {
		th := tx.Hash()
		c.txIndex[th] = append(c.txIndex[th], txRef{block: h, index: i})
	}
	cur := c.blocks[c.head]
	var dropped []*types.Transaction
	if entry.td > cur.td || (entry.td == cur.td && h.Compare(c.head) < 0) {
		dropped = c.setCanonicalHead(h, entry)
		// The head moved: sweep the heights that just fell out of the hot
		// window or past the finality horizon. Suppressed during log replay —
		// pruning a fork parent mid-replay would orphan its children that
		// appear later in the log; openStore sweeps once at the end instead.
		if !c.recovering {
			c.evictStatesLocked()
			c.pruneForksLocked()
		}
	}
	return dropped, nil
}

// setCanonicalHead moves the head to entry and rewrites the canonical
// number index for the new branch. Caller holds the write lock, so the head
// flip and the index swap are one atomic step for every reader. The walk is
// bounded by the depth of the reorg — one appended entry for a plain
// head extension.
//
// It returns the transactions of abandoned canonical blocks that the new
// branch does not re-include (nil on a plain extension, or when no OnReorg
// hook would consume them): the caller hands these to cfg.OnReorg once the
// lock is released.
func (c *Chain) setCanonicalHead(h types.Hash, entry *blockEntry) []*types.Transaction {
	c.head = h
	// Collect the new branch, newest first, back to the deepest block that
	// is already canonical at its height — the fork point.
	var branch []*blockEntry
	for e := entry; !c.isCanonical(e.block); {
		branch = append(branch, e)
		e = c.blocks[e.block.Header.ParentHash]
	}
	fork := entry.block.Number() - uint64(len(branch))
	var dropped []*types.Transaction
	if c.cfg.OnReorg != nil && !c.recovering && uint64(len(c.canon)) > fork+1 {
		inNew := make(map[types.Hash]bool)
		for _, e := range branch {
			for _, tx := range e.block.Txs {
				inNew[tx.Hash()] = true
			}
		}
		for n := fork + 1; n < uint64(len(c.canon)); n++ {
			old, ok := c.blocks[c.canon[n].hash]
			if !ok {
				continue // pruned below the finality horizon; nothing to salvage
			}
			for _, tx := range old.block.Txs {
				if !inNew[tx.Hash()] {
					dropped = append(dropped, tx)
				}
			}
		}
	}
	c.canon = c.canon[:fork+1]
	for i := len(branch) - 1; i >= 0; i-- {
		e := branch[i]
		prev := c.canon[len(c.canon)-1]
		ce := canonEntry{
			hash:     e.block.Hash(),
			cumTxs:   prev.cumTxs + len(e.block.Txs),
			cumEmpty: prev.cumEmpty,
		}
		if e.block.IsEmpty() {
			ce.cumEmpty++
		}
		c.canon = append(c.canon, ce)
	}
	return dropped
}

// process applies txs in block order to st, crediting the coinbase with the
// block reward and all fees, and returns the per-transaction receipts. The
// heavy lifting goes through the execution engine: serial when
// cfg.ExecWorkers is 0 or 1, otherwise optimistic parallel speculation with
// deterministic in-order commit (internal/exec) — both produce identical
// receipts and post-state.
func (c *Chain) process(st *state.State, txs []*types.Transaction, coinbase types.Address) ([]*types.Receipt, uint64, error) {
	if err := st.AddBalance(coinbase, c.cfg.BlockReward); err != nil {
		return nil, 0, err
	}
	receipts := make([]*types.Receipt, 0, len(txs))
	var gasUsed uint64
	gasOverflow := false
	err := exec.Run(st, txs, coinbase, exec.Workers(c.cfg.ExecWorkers),
		func(s exec.TxState, tx *types.Transaction) *types.Receipt {
			return c.applyTransaction(s, tx, coinbase)
		},
		func(i int, r *types.Receipt) exec.Decision {
			sum, carry := bits.Add64(gasUsed, r.GasUsed, 0)
			if carry != 0 {
				gasOverflow = true
				return exec.Stop
			}
			gasUsed = sum
			receipts = append(receipts, r)
			return exec.Commit
		})
	if err != nil {
		//shardlint:statesafe process validates a throwaway st copy; every caller discards it when an error is returned
		return nil, 0, err
	}
	if gasOverflow {
		return nil, 0, fmt.Errorf("%w: %d receipts", ErrGasOverflow, len(receipts))
	}
	return receipts, gasUsed, nil
}

// applyTransaction executes one transaction. Invalid transactions leave the
// state untouched and yield a ReceiptInvalid; reverted contract calls keep
// the fee and nonce change but roll everything else back.
//
// It is written against exec.TxState so the same code runs serially on the
// ledger state and speculatively on a state.Recorder overlay under the
// parallel engine.
func (c *Chain) applyTransaction(st exec.TxState, tx *types.Transaction, coinbase types.Address) *types.Receipt {
	r := &types.Receipt{TxHash: tx.Hash(), Shard: c.cfg.ShardID}
	// The entry snapshot is taken before the first mutation so every
	// invalid path can restore it: without the revert, a transaction whose
	// coinbase credit overflows would leave the sender's bumped nonce and
	// debited fee in state despite reporting ReceiptInvalid.
	entry := st.Snapshot()
	invalid := func(err error) *types.Receipt {
		if rerr := st.RevertToSnapshot(entry); rerr != nil {
			r.Err = rerr.Error()
		} else {
			r.Err = err.Error()
		}
		r.Status = types.ReceiptInvalid
		return r
	}
	switch tx.Kind {
	case types.TxTransfer:
		// The ordinary path below.
	case types.TxXShardBurn:
		return c.applyBurn(st, tx, coinbase, r, invalid)
	case types.TxXShardMint:
		return c.applyMint(st, tx, r, invalid)
	default:
		return invalid(fmt.Errorf("%w: %s", ErrBadTxKind, tx.Kind))
	}
	if err := crypto.VerifyTxCached(tx); err != nil {
		return invalid(fmt.Errorf("%w: %v", ErrBadSignature, err))
	}
	if got := st.GetNonce(tx.From); got != tx.Nonce {
		return invalid(fmt.Errorf("%w: state %d tx %d", ErrBadNonce, got, tx.Nonce))
	}
	// The solvency comparison must not compute tx.Value+tx.Fee: adversarial
	// values make the sum wrap and an insolvent transaction passes.
	if bal := st.GetBalance(tx.From); bal < tx.Value || bal-tx.Value < tx.Fee {
		return invalid(fmt.Errorf("%w: balance %d, needs %d value + %d fee", ErrInsufficient, bal, tx.Value, tx.Fee))
	}

	st.SetNonce(tx.From, tx.Nonce+1)
	if err := st.SubBalance(tx.From, tx.Fee); err != nil {
		return invalid(err)
	}
	if err := st.AddBalance(coinbase, tx.Fee); err != nil {
		return invalid(err)
	}
	r.FeePaid = tx.Fee

	snap := st.Snapshot()
	fail := func(err error) *types.Receipt {
		// Revert everything after the fee payment; the fee is burned into
		// the coinbase exactly as in Ethereum.
		if rerr := st.RevertToSnapshot(snap); rerr != nil {
			r.Err = rerr.Error()
		} else {
			r.Err = err.Error()
		}
		r.Status = types.ReceiptReverted
		return r
	}

	if err := st.Transfer(tx.From, tx.To, tx.Value); err != nil {
		return fail(err)
	}
	if code := st.GetCode(tx.To); len(code) > 0 {
		gas := tx.Gas
		if gas == 0 {
			gas = c.cfg.GasPerTx
		}
		// tx.Gas is sender-chosen: without this cap a looping contract given
		// MaxUint64 would run ~2^63 steps on every miner. No call can spend
		// more than a whole block holds.
		gas = min(gas, c.cfg.GasLimit)
		res, err := contract.Execute(&contract.Context{
			State:    st,
			Contract: tx.To,
			Caller:   tx.From,
			Value:    tx.Value,
			Data:     tx.Data,
			Gas:      gas,
		}, code)
		if res != nil {
			r.GasUsed = res.GasUsed
		}
		if err != nil {
			return fail(err)
		}
		r.ContractOK = true
	}
	r.Status = types.ReceiptSuccess
	return r
}

// BuildBlock assembles, executes and seals a block on top of the current
// head containing the given transactions (already filtered and ordered by
// the caller). Invalid transactions are skipped, mirroring a miner dropping
// unprocessable entries from its pool. timeMillis is the block timestamp.
func (c *Chain) BuildBlock(coinbase types.Address, txs []*types.Transaction, timeMillis uint64) (*types.Block, []*types.Receipt, error) {
	return c.BuildBlockWithProof(coinbase, nil, txs, timeMillis)
}

// BuildBlockWithProof is BuildBlock with a shard-membership proof embedded
// in the header (the miner's public key, Sec. III-B/C); the proof is sealed
// under the PoW so it cannot be swapped after mining.
func (c *Chain) BuildBlockWithProof(coinbase types.Address, proof []byte, txs []*types.Transaction, timeMillis uint64) (*types.Block, []*types.Receipt, error) {
	// Capture the state pointer under the same lock as the entry: a reorg
	// plus eviction could null the slot after the head slides, but a captured
	// pointer stays valid (State objects are immutable once published).
	c.mu.RLock()
	headEntry := c.blocks[c.head]
	hstate := headEntry.state
	c.mu.RUnlock()

	parent := headEntry.block.Header
	if timeMillis < parent.Time {
		timeMillis = parent.Time
	}
	if hstate == nil {
		rebuilt, err := c.rebuildState(headEntry.block.Hash())
		if err != nil {
			return nil, nil, err
		}
		hstate = rebuilt
	}
	st := hstate.Copy()

	// Dry-run to drop invalid transactions and respect block limits; the
	// execution engine parallelizes the speculation when cfg.ExecWorkers
	// allows, with the inclusion policy decided in candidate order exactly
	// as the serial loop would.
	if err := st.AddBalance(coinbase, c.cfg.BlockReward); err != nil {
		return nil, nil, err
	}
	var included []*types.Transaction
	var receipts []*types.Receipt
	var gasUsed uint64
	err := exec.Run(st, txs, coinbase, exec.Workers(c.cfg.ExecWorkers),
		func(s exec.TxState, tx *types.Transaction) *types.Receipt {
			return c.applyTransaction(s, tx, coinbase)
		},
		func(i int, r *types.Receipt) exec.Decision {
			if len(included) >= c.cfg.MaxBlockTxs {
				return exec.Stop
			}
			if r.Status == types.ReceiptInvalid {
				return exec.Skip
			}
			sum, carry := bits.Add64(gasUsed, r.GasUsed, 0)
			if carry != 0 || sum > c.cfg.GasLimit {
				return exec.Stop
			}
			gasUsed = sum
			included = append(included, txs[i])
			receipts = append(receipts, r)
			return exec.Commit
		})
	if err != nil {
		return nil, nil, err
	}
	st.DiscardJournal()

	header := &types.Header{
		ParentHash: headEntry.block.Hash(),
		Number:     parent.Number + 1,
		Time:       timeMillis,
		Difficulty: c.expectedDifficulty(parent, timeMillis),
		Coinbase:   coinbase,
		StateRoot:  st.Root(),
		ShardID:    c.cfg.ShardID,
		GasLimit:   c.cfg.GasLimit,
		GasUsed:    gasUsed,
		MinerProof: proof,
	}
	block := types.NewBlock(header, included)
	if err := pow.Seal(header, sealBudget(header.Difficulty)); err != nil {
		return nil, nil, err
	}
	for _, r := range receipts {
		r.BlockHash = block.Hash()
		r.BlockNum = header.Number
	}
	return block, receipts, nil
}

// sealBudget bounds the nonce search generously relative to difficulty.
func sealBudget(difficulty uint64) uint64 {
	const margin = 64
	if difficulty > (1<<63)/margin {
		return 1 << 63
	}
	budget := difficulty * margin
	if budget < 1<<16 {
		budget = 1 << 16
	}
	return budget
}

// MineNext is a convenience for tests and examples: select up to
// MaxBlockTxs highest-fee transactions from the pool that pass keep, build
// and add the block, and remove confirmed transactions from the pool.
func (c *Chain) MineNext(coinbase types.Address, pool *mempool.Pool, keep func(*types.Transaction) bool, timeMillis uint64) (*types.Block, error) {
	// Selection walks the pool in fee order and stops once MaxBlockTxs apply,
	// so a bounded top-of-pool prefix almost always suffices — O(n log P)
	// instead of Pending's full O(P log P) sort. The prefix is oversized to
	// absorb inapplicable candidates (nonce gaps, consumed mints); if the
	// block still comes back short while the prefix was truncated, the build
	// falls back to the full fee-sorted pool, which reproduces the unbounded
	// behaviour exactly.
	budget := 4 * c.cfg.MaxBlockTxs
	candidates := topCandidates(pool, keep, budget)
	block, _, err := c.BuildBlock(coinbase, candidates, timeMillis)
	if err != nil {
		return nil, err
	}
	if len(block.Txs) < c.cfg.MaxBlockTxs && len(candidates) == budget {
		if keep == nil {
			candidates = pool.Pending()
		} else {
			candidates = pool.Filter(keep)
		}
		if block, _, err = c.BuildBlock(coinbase, candidates, timeMillis); err != nil {
			return nil, err
		}
	}
	if err := c.AddBlock(block); err != nil {
		return nil, err
	}
	pool.RemoveTxs(block.Txs)
	return block, nil
}

// topCandidates fetches the best budget pool transactions in selection
// order, optionally restricted by keep.
func topCandidates(pool *mempool.Pool, keep func(*types.Transaction) bool, budget int) []*types.Transaction {
	if keep == nil {
		return pool.TakeTop(budget)
	}
	return pool.FilterTop(budget, keep)
}

// GetReceipt returns the execution receipt of a transaction on the
// canonical chain, or nil when the transaction is unknown. Receipts come
// from the chain's own re-execution during AddBlock, so they reflect what
// this node verified, not what a producer claimed. Served from the tx
// index: a transaction included only on a losing fork yields nil, and the
// answer flips with fork choice because canonicity is re-decided against
// the number index on every call.
func (c *Chain) GetReceipt(txHash types.Hash) *types.Receipt {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ref := range c.txIndex[txHash] {
		e := c.blocks[ref.block]
		if !c.isCanonical(e.block) {
			continue
		}
		if ref.index < len(e.receipts) {
			return e.receipts[ref.index]
		}
		return nil
	}
	return nil
}

// HeadBalance reads one account's balance at the head without copying the
// whole state the way HeadState().GetBalance would.
func (c *Chain) HeadBalance(addr types.Address) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[c.head].state.GetBalance(addr)
}

// HeadNonce reads one account's nonce at the head — what a client must use
// as the next transaction nonce, e.g. to resume submitting against a
// recovered ledger.
func (c *Chain) HeadNonce(addr types.Address) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[c.head].state.GetNonce(addr)
}

// BlockReceipts returns the receipts of a canonical-or-side block by hash.
func (c *Chain) BlockReceipts(blockHash types.Hash) []*types.Receipt {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.blocks[blockHash]; ok {
		out := make([]*types.Receipt, len(e.receipts))
		copy(out, e.receipts)
		return out
	}
	return nil
}
