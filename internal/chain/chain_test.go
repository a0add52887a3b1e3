package chain

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"contractshard/internal/contract"
	"contractshard/internal/crypto"
	"contractshard/internal/mempool"
	"contractshard/internal/types"
)

// testConfig keeps PoW trivial so tests are fast.
func testConfig(shard types.ShardID) Config {
	cfg := DefaultConfig(shard)
	cfg.Difficulty = 16
	return cfg
}

type fixture struct {
	chain  *Chain
	alice  *crypto.Keypair
	bob    *crypto.Keypair
	miner  types.Address
	nonces map[types.Address]uint64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	alice := crypto.KeypairFromSeed("alice")
	bob := crypto.KeypairFromSeed("bob")
	c, err := New(testConfig(1), map[types.Address]uint64{
		alice.Address(): 1_000_000,
		bob.Address():   1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		chain:  c,
		alice:  alice,
		bob:    bob,
		miner:  types.BytesToAddress([]byte{0xA1}),
		nonces: make(map[types.Address]uint64),
	}
}

func (f *fixture) signedTransfer(t *testing.T, from *crypto.Keypair, to types.Address, value, fee uint64) *types.Transaction {
	t.Helper()
	tx := &types.Transaction{
		Nonce: f.nonces[from.Address()],
		From:  from.Address(),
		To:    to,
		Value: value,
		Fee:   fee,
	}
	if err := crypto.SignTx(tx, from); err != nil {
		t.Fatal(err)
	}
	f.nonces[from.Address()]++
	return tx
}

func TestGenesis(t *testing.T) {
	f := newFixture(t)
	g := f.chain.Genesis()
	if g.Number() != 0 {
		t.Fatal("genesis number")
	}
	if f.chain.Head().Hash() != g.Hash() {
		t.Fatal("head should be genesis")
	}
	st := f.chain.HeadState()
	if st.GetBalance(f.alice.Address()) != 1_000_000 {
		t.Fatal("genesis alloc missing")
	}
}

func TestBuildAndAddBlock(t *testing.T) {
	f := newFixture(t)
	tx := f.signedTransfer(t, f.alice, f.bob.Address(), 100, 5)
	block, receipts, err := f.chain.BuildBlock(f.miner, []*types.Transaction{tx}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 1 || len(receipts) != 1 {
		t.Fatalf("block txs %d receipts %d", len(block.Txs), len(receipts))
	}
	if receipts[0].Status != types.ReceiptSuccess {
		t.Fatalf("receipt: %+v", receipts[0])
	}
	if err := f.chain.AddBlock(block); err != nil {
		t.Fatal(err)
	}
	if f.chain.Height() != 1 {
		t.Fatal("height should be 1")
	}
	st := f.chain.HeadState()
	if st.GetBalance(f.bob.Address()) != 1_000_100 {
		t.Fatalf("bob balance %d", st.GetBalance(f.bob.Address()))
	}
	if st.GetBalance(f.alice.Address()) != 1_000_000-105 {
		t.Fatalf("alice balance %d", st.GetBalance(f.alice.Address()))
	}
	wantMiner := f.chain.Config().BlockReward + 5
	if st.GetBalance(f.miner) != wantMiner {
		t.Fatalf("miner balance %d want %d", st.GetBalance(f.miner), wantMiner)
	}
}

func TestEmptyBlockEarnsReward(t *testing.T) {
	f := newFixture(t)
	block, _, err := f.chain.BuildBlock(f.miner, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !block.IsEmpty() {
		t.Fatal("block should be empty")
	}
	if err := f.chain.AddBlock(block); err != nil {
		t.Fatal(err)
	}
	if got := f.chain.HeadState().GetBalance(f.miner); got != f.chain.Config().BlockReward {
		t.Fatalf("empty block reward: %d", got)
	}
	if f.chain.EmptyBlockCount() != 1 {
		t.Fatal("empty block not counted")
	}
}

func TestAddBlockRejections(t *testing.T) {
	f := newFixture(t)
	tx := f.signedTransfer(t, f.alice, f.bob.Address(), 1, 1)
	good, _, err := f.chain.BuildBlock(f.miner, []*types.Transaction{tx}, 1000)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong shard.
	wrong := good.Header.Clone()
	wrong.ShardID = 9
	if err := f.chain.AddBlock(&types.Block{Header: wrong, Txs: good.Txs}); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("wrong shard: %v", err)
	}
	// Unknown parent.
	orphan := good.Header.Clone()
	orphan.ParentHash = types.BytesToHash([]byte{0xAB})
	if err := f.chain.AddBlock(&types.Block{Header: orphan, Txs: good.Txs}); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("orphan: %v", err)
	}
	// Bad state root.
	badRoot := good.Header.Clone()
	badRoot.StateRoot = types.BytesToHash([]byte{0xCD})
	if err := f.chain.AddBlock(&types.Block{Header: badRoot, Txs: good.Txs}); !errors.Is(err, ErrBadSeal) && !errors.Is(err, ErrBadStateRoot) {
		// Changing the root invalidates the seal too; either rejection is correct.
		t.Fatalf("bad root: %v", err)
	}
	// Bad gas used declaration.
	badGas := good.Header.Clone()
	badGas.GasUsed += 7
	if err := f.chain.AddBlock(&types.Block{Header: badGas, Txs: good.Txs}); err == nil {
		t.Fatal("bad gas accepted")
	}

	// The untampered block is accepted, exactly once.
	if err := f.chain.AddBlock(good); err != nil {
		t.Fatal(err)
	}
	if err := f.chain.AddBlock(good); !errors.Is(err, ErrKnownBlock) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestInvalidTxRejectsBlock(t *testing.T) {
	f := newFixture(t)
	tx := f.signedTransfer(t, f.alice, f.bob.Address(), 1, 1)
	tx.Nonce = 99 // stale/future nonce
	// Re-sign with the bad nonce so only the nonce check can fail.
	tx.Sig, tx.PubKey = nil, nil
	if err := crypto.SignTx(tx, f.alice); err != nil {
		t.Fatal(err)
	}
	block, _, err := f.chain.BuildBlock(f.miner, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-craft a block that includes the invalid tx with plausible header
	// values; AddBlock must reject it during re-execution.
	forged := types.NewBlock(&types.Header{
		ParentHash: block.Header.ParentHash,
		Number:     block.Header.Number,
		Time:       block.Header.Time,
		Difficulty: block.Header.Difficulty,
		Coinbase:   f.miner,
		StateRoot:  block.Header.StateRoot,
		ShardID:    block.Header.ShardID,
		GasLimit:   block.Header.GasLimit,
	}, []*types.Transaction{tx})
	// Seal it so we get past PoW.
	if err := sealForTest(forged); err != nil {
		t.Fatal(err)
	}
	if err := f.chain.AddBlock(forged); !errors.Is(err, ErrInvalidTx) {
		t.Fatalf("invalid tx: %v", err)
	}
}

func sealForTest(b *types.Block) error {
	return sealHeader(b.Header)
}

func TestBuildBlockSkipsInvalid(t *testing.T) {
	f := newFixture(t)
	good := f.signedTransfer(t, f.alice, f.bob.Address(), 1, 1)
	unsigned := &types.Transaction{Nonce: 0, From: f.bob.Address(), To: f.alice.Address(), Value: 1}
	block, receipts, err := f.chain.BuildBlock(f.miner, []*types.Transaction{unsigned, good}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 1 || block.Txs[0].Hash() != good.Hash() {
		t.Fatal("invalid tx not skipped")
	}
	if receipts[0].Status != types.ReceiptSuccess {
		t.Fatal("surviving receipt should be success")
	}
	if err := f.chain.AddBlock(block); err != nil {
		t.Fatal(err)
	}
}

func TestMaxBlockTxs(t *testing.T) {
	f := newFixture(t)
	var txs []*types.Transaction
	for i := 0; i < 15; i++ {
		txs = append(txs, f.signedTransfer(t, f.alice, f.bob.Address(), 1, 1))
	}
	block, _, err := f.chain.BuildBlock(f.miner, txs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != f.chain.Config().MaxBlockTxs {
		t.Fatalf("block holds %d txs, want %d", len(block.Txs), f.chain.Config().MaxBlockTxs)
	}
	if err := f.chain.AddBlock(block); err != nil {
		t.Fatal(err)
	}
}

func TestContractCallOnChain(t *testing.T) {
	f := newFixture(t)
	dest := types.BytesToAddress([]byte{0xDE})
	contractAddr := types.BytesToAddress([]byte{0xC0})

	// Install the paper's unconditional transfer contract in genesis state.
	chainWithCode, err := NewWithContracts(testConfig(1),
		map[types.Address]uint64{f.alice.Address(): 1_000_000},
		map[types.Address][]byte{contractAddr: contract.UnconditionalTransfer(dest)})
	if err != nil {
		t.Fatal(err)
	}

	tx := &types.Transaction{
		Nonce: 0,
		From:  f.alice.Address(),
		To:    contractAddr,
		Value: 500,
		Fee:   10,
		Data:  []byte{1}, // mark as contract call
	}
	if err := crypto.SignTx(tx, f.alice); err != nil {
		t.Fatal(err)
	}
	block, receipts, err := chainWithCode.BuildBlock(f.miner, []*types.Transaction{tx}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := chainWithCode.AddBlock(block); err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.ReceiptSuccess || !receipts[0].ContractOK {
		t.Fatalf("receipt: %+v", receipts[0])
	}
	st := chainWithCode.HeadState()
	if st.GetBalance(dest) != 500 {
		t.Fatalf("contract did not forward value: dest=%d", st.GetBalance(dest))
	}
	if st.GetBalance(contractAddr) != 0 {
		t.Fatalf("contract retained escrow: %d", st.GetBalance(contractAddr))
	}
}

func TestContractRevertKeepsFee(t *testing.T) {
	f := newFixture(t)
	dest := types.BytesToAddress([]byte{0xDE})
	contractAddr := types.BytesToAddress([]byte{0xC0})
	// Conditional transfer with threshold 0: condition (balance < 0) never
	// holds, so the call always reverts.
	c, err := NewWithContracts(testConfig(1),
		map[types.Address]uint64{f.alice.Address(): 1_000_000},
		map[types.Address][]byte{contractAddr: contract.ConditionalTransfer(dest, 0)})
	if err != nil {
		t.Fatal(err)
	}
	tx := &types.Transaction{
		Nonce: 0, From: f.alice.Address(), To: contractAddr,
		Value: 500, Fee: 10, Data: []byte{1},
	}
	if err := crypto.SignTx(tx, f.alice); err != nil {
		t.Fatal(err)
	}
	block, receipts, err := c.BuildBlock(f.miner, []*types.Transaction{tx}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(block); err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.ReceiptReverted {
		t.Fatalf("receipt: %+v", receipts[0])
	}
	st := c.HeadState()
	// Escrowed value returned; fee paid; nonce advanced.
	if st.GetBalance(f.alice.Address()) != 1_000_000-10 {
		t.Fatalf("alice balance %d", st.GetBalance(f.alice.Address()))
	}
	if st.GetBalance(dest) != 0 || st.GetBalance(contractAddr) != 0 {
		t.Fatal("reverted call moved value")
	}
	if st.GetNonce(f.alice.Address()) != 1 {
		t.Fatal("revert must still consume the nonce")
	}
}

// TestContractGasCappedAtBlockLimit: a call's sender-chosen gas budget is
// capped at the block gas limit. Uncapped, Gas = MaxUint64 on a contract
// that loops forever would run ~2^63 VM steps inside BuildBlock, and again
// in every validator's AddBlock.
func TestContractGasCappedAtBlockLimit(t *testing.T) {
	f := newFixture(t)
	contractAddr := types.BytesToAddress([]byte{0xC0})
	spin := []byte{byte(contract.PUSH), 0, byte(contract.JUMP)} // PUSH 0; JUMP
	genesis := func() *Chain {
		c, err := NewWithContracts(testConfig(1),
			map[types.Address]uint64{f.alice.Address(): 1_000_000},
			map[types.Address][]byte{contractAddr: spin})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	miner, validator := genesis(), genesis()
	tx := &types.Transaction{
		Nonce: 0, From: f.alice.Address(), To: contractAddr,
		Value: 500, Fee: 10, Gas: math.MaxUint64, Data: []byte{1},
	}
	if err := crypto.SignTx(tx, f.alice); err != nil {
		t.Fatal(err)
	}
	block, receipts, err := miner.BuildBlock(f.miner, []*types.Transaction{tx}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(receipts) != 1 {
		t.Fatalf("%d receipts, want the call included", len(receipts))
	}
	r := receipts[0]
	if r.Status != types.ReceiptReverted || r.Err != contract.ErrOutOfGas.Error() {
		t.Fatalf("receipt: %+v, want an out-of-gas revert", r)
	}
	if limit := miner.Config().GasLimit; r.GasUsed != limit {
		t.Fatalf("gas used %d, want the block limit %d", r.GasUsed, limit)
	}
	if err := validator.AddBlock(block); err != nil {
		t.Fatalf("validator rejected the block: %v", err)
	}
	if validator.HeadState().Root() != block.Header.StateRoot {
		t.Fatal("validator's post-state differs from the block's root")
	}
}

func TestForkChoiceHeaviestWins(t *testing.T) {
	f := newFixture(t)
	tx := f.signedTransfer(t, f.alice, f.bob.Address(), 1, 1)

	// Branch A: one block at height 1.
	blockA, _, err := f.chain.BuildBlock(f.miner, []*types.Transaction{tx}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.chain.AddBlock(blockA); err != nil {
		t.Fatal(err)
	}
	headAfterA := f.chain.Head().Hash()

	// Branch B: a competing empty block also at height 1 (same parent).
	otherMiner := types.BytesToAddress([]byte{0x99})
	blockB := buildOn(t, f.chain, f.chain.Genesis(), otherMiner, nil, 2000)
	if err := f.chain.AddBlock(blockB); err != nil {
		t.Fatal(err)
	}
	// Same total difficulty: head stays or switches deterministically by hash.
	want := headAfterA
	if blockB.Hash().Compare(headAfterA) < 0 {
		want = blockB.Hash()
	}
	if f.chain.Head().Hash() != want {
		t.Fatal("tie break not deterministic by hash")
	}

	// Extend branch B: it becomes strictly heavier and must win.
	blockB2 := buildOn(t, f.chain, blockB, otherMiner, nil, 3000)
	if err := f.chain.AddBlock(blockB2); err != nil {
		t.Fatal(err)
	}
	if f.chain.Head().Hash() != blockB2.Hash() {
		t.Fatal("heavier branch did not win")
	}
	if f.chain.Height() != 2 {
		t.Fatal("height after reorg")
	}
	// The canonical chain must now be genesis -> B -> B2.
	canon := f.chain.CanonicalBlocks()
	if len(canon) != 3 || canon[1].Hash() != blockB.Hash() {
		t.Fatal("canonical chain wrong after reorg")
	}
}

// buildOn assembles a sealed block on an arbitrary parent (not just head).
func buildOn(t *testing.T, c *Chain, parent *types.Block, coinbase types.Address, txs []*types.Transaction, timeMillis uint64) *types.Block {
	t.Helper()
	st := c.StateAt(parent.Hash())
	if st == nil {
		t.Fatal("parent state missing")
	}
	if err := st.AddBalance(coinbase, c.Config().BlockReward); err != nil {
		t.Fatal(err)
	}
	header := &types.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number() + 1,
		Time:       timeMillis,
		Difficulty: c.Config().Difficulty,
		Coinbase:   coinbase,
		StateRoot:  st.Root(),
		ShardID:    c.Config().ShardID,
		GasLimit:   c.Config().GasLimit,
	}
	b := types.NewBlock(header, txs)
	if err := sealHeader(header); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMineNextWithPool(t *testing.T) {
	f := newFixture(t)
	pool := mempool.New(0)
	for i := 0; i < 12; i++ {
		if err := pool.Add(f.signedTransfer(t, f.alice, f.bob.Address(), 1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Nonce ordering vs fee ordering: highest-fee txs have the highest
	// nonces, which are not yet valid, so the miner should confirm what it
	// can; with all from one sender, only the lowest-nonce tx (fee 0) is
	// valid in the first block.
	block, err := f.chain.MineNext(f.miner, pool, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) == 0 {
		t.Fatal("expected at least one confirmable tx")
	}
	if pool.Contains(block.Txs[0].Hash()) {
		t.Fatal("confirmed tx still in pool")
	}
}

func TestConfirmedTxCount(t *testing.T) {
	f := newFixture(t)
	tx := f.signedTransfer(t, f.alice, f.bob.Address(), 1, 1)
	block, _, err := f.chain.BuildBlock(f.miner, []*types.Transaction{tx}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.chain.AddBlock(block); err != nil {
		t.Fatal(err)
	}
	if f.chain.ConfirmedTxCount() != 1 {
		t.Fatal("confirmed count")
	}
}

func TestStateAtIsolation(t *testing.T) {
	f := newFixture(t)
	st := f.chain.HeadState()
	if err := st.AddBalance(f.alice.Address(), 1); err != nil {
		t.Fatal(err)
	}
	if f.chain.HeadState().GetBalance(f.alice.Address()) != 1_000_000 {
		t.Fatal("external mutation leaked into chain state")
	}
	if f.chain.StateAt(types.BytesToHash([]byte{9})) != nil {
		t.Fatal("unknown block should give nil state")
	}
}

func ExampleChain_BuildBlock() {
	alice := crypto.KeypairFromSeed("alice")
	bob := crypto.KeypairFromSeed("bob")
	c, _ := New(testConfig(1), map[types.Address]uint64{alice.Address(): 1000})
	tx := &types.Transaction{From: alice.Address(), To: bob.Address(), Value: 10, Fee: 1}
	_ = crypto.SignTx(tx, alice)
	block, _, _ := c.BuildBlock(types.Address{}, []*types.Transaction{tx}, 0)
	_ = c.AddBlock(block)
	fmt.Println(c.Height(), c.HeadState().GetBalance(bob.Address()))
	// Output: 1 10
}

func TestRetargetModeDifficultyTracksInterval(t *testing.T) {
	alice := crypto.KeypairFromSeed("alice")
	cfg := testConfig(1)
	cfg.TargetInterval = 10 // seconds
	cfg.Difficulty = 1 << 12
	c, err := New(cfg, map[types.Address]uint64{alice.Address(): 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	miner := types.BytesToAddress([]byte{0xA1})

	// Mine blocks 2 seconds apart: faster than target, difficulty must rise.
	last := c.Genesis().Header.Difficulty
	tms := uint64(0)
	for i := 0; i < 5; i++ {
		tms += 2000
		block, _, err := c.BuildBlock(miner, nil, tms)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddBlock(block); err != nil {
			t.Fatal(err)
		}
		if block.Header.Difficulty < last {
			t.Fatalf("fast blocks lowered difficulty: %d -> %d", last, block.Header.Difficulty)
		}
		last = block.Header.Difficulty
	}
	if last <= cfg.Difficulty {
		t.Fatalf("difficulty did not rise: %d", last)
	}

	// Now mine far apart: slower than target, difficulty must fall.
	for i := 0; i < 5; i++ {
		tms += 60_000
		block, _, err := c.BuildBlock(miner, nil, tms)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddBlock(block); err != nil {
			t.Fatal(err)
		}
		if block.Header.Difficulty > last {
			t.Fatalf("slow blocks raised difficulty: %d -> %d", last, block.Header.Difficulty)
		}
		last = block.Header.Difficulty
	}
}

func TestRetargetModeRejectsWrongDifficulty(t *testing.T) {
	alice := crypto.KeypairFromSeed("alice")
	cfg := testConfig(1)
	cfg.TargetInterval = 10
	cfg.Difficulty = 1 << 12
	c, err := New(cfg, map[types.Address]uint64{alice.Address(): 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	block, _, err := c.BuildBlock(types.BytesToAddress([]byte{0xA1}), nil, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Declare a lazy difficulty (keeping genesis value) — must be rejected.
	forged := block.Header.Clone()
	forged.Difficulty = cfg.Difficulty / 2
	if err := sealHeader(forged); err != nil {
		t.Fatal(err)
	}
	err = c.AddBlock(&types.Block{Header: forged, Txs: nil})
	if !errors.Is(err, ErrBadDifficulty) {
		t.Fatalf("wrong difficulty: %v", err)
	}
}

func TestNonMonotonicTimeRejected(t *testing.T) {
	f := newFixture(t)
	b1, _, err := f.chain.BuildBlock(f.miner, nil, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.chain.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a child with time before its parent.
	st := f.chain.StateAt(b1.Hash())
	if err := st.AddBalance(f.miner, f.chain.Config().BlockReward); err != nil {
		t.Fatal(err)
	}
	h := &types.Header{
		ParentHash: b1.Hash(),
		Number:     2,
		Time:       1000, // before parent's 5000
		Difficulty: f.chain.Config().Difficulty,
		Coinbase:   f.miner,
		StateRoot:  st.Root(),
		ShardID:    1,
		GasLimit:   f.chain.Config().GasLimit,
	}
	b2 := types.NewBlock(h, nil)
	if err := sealHeader(h); err != nil {
		t.Fatal(err)
	}
	if err := f.chain.AddBlock(b2); !errors.Is(err, ErrNonMonotonicTime) {
		t.Fatalf("time regression: %v", err)
	}
}

func TestHeadSnapshotConsistentUnderConcurrentAddBlock(t *testing.T) {
	// Readers snapshotting head+state while a writer extends the chain must
	// always see a block/state pair that belong together: the state root of
	// the copied state equals the header's declared root.
	f := newFixture(t)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 8; i++ {
			block, _, err := f.chain.BuildBlock(f.miner, nil, uint64(1000*(i+1)))
			if err != nil {
				done <- err
				return
			}
			if err := f.chain.AddBlock(block); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 200; i++ {
		block, st := f.chain.HeadSnapshot()
		if got := st.Root(); got != block.Header.StateRoot {
			t.Fatalf("torn snapshot: state root %s vs header %s at height %d",
				got, block.Header.StateRoot, block.Number())
		}
		if st := f.chain.HeadState(); st == nil {
			t.Fatal("HeadState returned nil")
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMineNextBoundedSelectionFallback: MineNext now feeds BuildBlock a
// bounded top-of-pool prefix. When that whole prefix is inapplicable — here,
// high-fee transactions with far-future nonces outranking every currently
// valid one — the miner must fall back to the full pool and still fill the
// block exactly as the unbounded selection did.
func TestMineNextBoundedSelectionFallback(t *testing.T) {
	f := newFixture(t)
	pool := mempool.New(0)
	budget := 4 * f.chain.Config().MaxBlockTxs
	// budget high-fee txs with unreachable nonces occupy the entire prefix.
	for i := 0; i < budget; i++ {
		tx := &types.Transaction{
			Nonce: uint64(1000 + i),
			From:  f.alice.Address(),
			To:    f.bob.Address(),
			Value: 1,
			Fee:   1 << 30,
		}
		if err := crypto.SignTx(tx, f.alice); err != nil {
			t.Fatal(err)
		}
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	// One applicable low-fee transfer ranked below all of them.
	valid := f.signedTransfer(t, f.bob, f.alice.Address(), 1, 1)
	if err := pool.Add(valid); err != nil {
		t.Fatal(err)
	}
	block, err := f.chain.MineNext(f.miner, pool, nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 1 || block.Txs[0].Hash() != valid.Hash() {
		t.Fatalf("bounded selection missed the applicable tx: block has %d txs", len(block.Txs))
	}
	if pool.Contains(valid.Hash()) {
		t.Fatal("confirmed tx still pooled")
	}
}
