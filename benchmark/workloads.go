package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"contractshard/internal/contract"
	"contractshard/internal/crypto"
	"contractshard/internal/types"
	"contractshard/internal/workload"
	"contractshard/internal/xshard"
)

// numShards is the fixed topology: the MaxShard (id 0) plus three contract
// shards (ids 1-3).
const numShards = 4

// spec is one named workload: what differs from the common topology.
type spec struct {
	name string
	// accounts is the number of funded accounts per shard.
	accounts int
	// calls is the number of contract calls per slot by home shard; index 0
	// (the MaxShard) is unused.
	calls [numShards]int
	// direct is the number of EOA-to-EOA transfers per slot; RouteTx sends
	// them to the MaxShard.
	direct int
	// burns is the number of cross-shard burns each contract shard signs per
	// slot, to the next shard of the ring 1→2→3→1.
	burns int
	// compute installs the arithmetic-loop contract on shard 1 and turns the
	// parallel engine on (ExecWorkers = GOMAXPROCS) on every shard.
	compute bool
}

// The four workloads. Names are referred to by BENCHMARK.json and by every
// later performance issue; README.md records why each one exists.
var specs = []spec{
	{name: "transfer-small", accounts: 2000, calls: [numShards]int{0, 200, 200, 200}, direct: 50},
	{name: "transfer-large", accounts: 11000, calls: [numShards]int{0, 200, 200, 200}, direct: 50},
	{name: "contract-compute", accounts: 2000, calls: [numShards]int{0, 200, 0, 0}, direct: 50, compute: true},
	{name: "xshard-ring", accounts: 2000, calls: [numShards]int{0, 100, 100, 100}, direct: 50, burns: 50},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled divides the account and batch counts, for the smoke test.
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	s.accounts /= div
	for i := range s.calls {
		s.calls[i] /= div
	}
	s.direct /= div
	s.burns /= div
	return s
}

// perSlot is the number of user transactions one slot submits.
func (s spec) perSlot() int {
	n := s.direct
	for i := 1; i < numShards; i++ {
		n += s.calls[i] + s.burns
	}
	return n
}

// loopIterations sizes the contract-compute program: ~15 VM steps per
// iteration, ~15k gas per call, well under chain.Config.GasPerTx.
const loopIterations = 1000

// loopContract assembles the contract-compute program: an arithmetic loop of
// n iterations over an accumulator, ending in an SSTORE of the accumulator
// to the storage slot keyed by CALLER. Stack layout inside the loop is
// [acc, i].
func loopContract(n uint64) []byte {
	return contract.NewProgram().
		PushU64(1). // acc
		PushU64(n). // i
		Label("loop").
		Op(contract.DUP, contract.ISZERO).
		PushLabel("end").
		Op(contract.SWAP, contract.JUMPI). // if i == 0 goto end
		PushU64(1).
		Op(contract.SUB, contract.SWAP). // [i-1, acc]
		PushU64(3).
		Op(contract.MUL).
		PushU64(7).
		Op(contract.ADD, contract.SWAP). // [acc*3+7, i-1]
		PushLabel("loop").
		Op(contract.JUMP).
		Label("end").
		Op(contract.POP, contract.CALLER, contract.SWAP, contract.SSTORE, contract.STOP).
		MustAssemble()
}

// contractAddr is the address of the contract shard s forms around, and
// destAddr the fixed payee of its UnconditionalTransfer contract.
func contractAddr(s int) types.Address { return types.BytesToAddress([]byte{0xC0, byte(s)}) }
func destAddr(s int) types.Address     { return types.BytesToAddress([]byte{0xDD, byte(s)}) }

// contractCode is the program installed at shard s's contract address.
func (s spec) contractCode(shard int) []byte {
	if s.compute && shard == 1 {
		return loopContract(loopIterations)
	}
	return contract.UnconditionalTransfer(destAddr(shard))
}

// accountBalance funds each account far beyond what a run can spend.
const accountBalance = 1 << 26

// shardGen generates one shard's transactions. Everything it draws comes
// from its seeded rng and its own nonce table, so the contents of slot k
// are a pure function of (seed, k).
type shardGen struct {
	shard  int
	keys   []*crypto.Keypair
	addrs  []types.Address
	nonces []uint64
	rng    *rand.Rand
	zipf   func() int
}

// newGens derives every account key ("bench/<shard>/<i>") in parallel and
// seeds the per-shard draw streams.
func newGens(accounts int, seed int64) ([]*shardGen, error) {
	gens := make([]*shardGen, numShards)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for s := range gens {
		g := &shardGen{
			shard:  s,
			keys:   make([]*crypto.Keypair, accounts),
			addrs:  make([]types.Address, accounts),
			nonces: make([]uint64, accounts),
			rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(s)*7919 + 17)),
		}
		var err error
		if g.zipf, err = workload.ZipfIndices(g.rng, accounts, 1.2); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		gens[s] = g
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(g *shardGen, w int) {
				defer wg.Done()
				for i := w; i < len(g.keys); i += workers {
					k := crypto.KeypairFromSeed(fmt.Sprintf("bench/%d/%d", g.shard, i))
					g.keys[i] = k
					g.addrs[i] = k.Address()
				}
			}(g, w)
		}
	}
	wg.Wait()
	return gens, nil
}

// alloc is the shard's genesis allocation: only its own accounts.
func (g *shardGen) alloc() map[types.Address]uint64 {
	m := make(map[types.Address]uint64, len(g.addrs))
	for _, a := range g.addrs {
		m[a] = accountBalance
	}
	return m
}

// sign finishes tx as sender si's next transaction. The fee is a fixed hash
// of the sender index, as in soak.signedTx: a Zipf-hot sender authors
// several transactions per slot, and equal fees tie-break by (From, Nonce),
// so the burst applies in nonce order and the block drains the whole batch.
func (g *shardGen) sign(si int, tx *types.Transaction) (*types.Transaction, error) {
	tx.Nonce = g.nonces[si]
	tx.From = g.addrs[si]
	tx.Fee = 1 + uint64(si*2654435761>>8)%100
	if err := crypto.SignTx(tx, g.keys[si]); err != nil {
		return nil, fmt.Errorf("sign: %w", err)
	}
	g.nonces[si]++
	return tx, nil
}

// batch signs the shard's transactions for one slot: contract calls first,
// then burns to the ring successor next, then (MaxShard only) direct
// transfers.
func (g *shardGen) batch(sp spec, next *shardGen) ([]*types.Transaction, error) {
	var out []*types.Transaction
	add := func(tx *types.Transaction, err error) error {
		if err == nil {
			out = append(out, tx)
		}
		return err
	}
	if g.shard == 0 {
		for i := 0; i < sp.direct; i++ {
			si := g.zipf()
			ri := g.rng.Intn(len(g.addrs))
			if ri == si {
				ri = (ri + 1) % len(g.addrs)
			}
			if err := add(g.sign(si, &types.Transaction{To: g.addrs[ri], Value: 1})); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	value := uint64(1)
	if sp.compute {
		// The loop contract keeps what it is sent; calls carry no value.
		value = 0
	}
	for i := 0; i < sp.calls[g.shard]; i++ {
		call := &types.Transaction{To: contractAddr(g.shard), Value: value, Data: []byte{1}}
		if err := add(g.sign(g.zipf(), call)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sp.burns; i++ {
		si := g.zipf()
		to := next.addrs[si%len(next.addrs)]
		burn := xshard.NewBurn(types.Address{}, to, 1, 0, 0, types.ShardID(g.shard), types.ShardID(next.shard))
		if err := add(g.sign(si, burn)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
