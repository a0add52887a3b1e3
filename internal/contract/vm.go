// Package contract implements the smart contract virtual machine: a small
// gas-metered stack machine in the spirit of the EVM, sufficient for the
// contract patterns the paper exercises — unconditional transfers to a fixed
// destination (the evaluation workload, Sec. VI-A) and conditional transfers
// such as "send 2 ETH to B if B's balance is below 1 ETH" (Sec. II-A).
//
// Words are 32 bytes; arithmetic interprets the low 8 bytes as an unsigned
// integer, which matches the uint64 value model of the rest of the system.
package contract

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"contractshard/internal/types"
)

// Op is a VM opcode.
type Op byte

// Opcodes. PUSH carries a one-byte length followed by that many immediate
// bytes, right-aligned into the word.
const (
	STOP Op = iota
	PUSH
	POP
	DUP
	SWAP
	ADD
	SUB
	MUL
	DIV
	MOD
	LT
	GT
	EQ
	ISZERO
	AND
	OR
	NOT
	JUMP
	JUMPI
	CALLER
	CALLVALUE
	CALLDATALOAD
	CALLDATASIZE
	BALANCE
	SELFBALANCE
	ADDRESS
	SLOAD
	SSTORE
	TRANSFER
	REVERT
	opCount // sentinel
)

var opNames = [...]string{
	"STOP", "PUSH", "POP", "DUP", "SWAP", "ADD", "SUB", "MUL", "DIV", "MOD",
	"LT", "GT", "EQ", "ISZERO", "AND", "OR", "NOT", "JUMP", "JUMPI",
	"CALLER", "CALLVALUE", "CALLDATALOAD", "CALLDATASIZE", "BALANCE",
	"SELFBALANCE", "ADDRESS", "SLOAD", "SSTORE", "TRANSFER", "REVERT",
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("INVALID(0x%02x)", byte(o))
}

// Per-opcode gas cost. Storage writes are priced above everything else, as
// in the EVM.
func gasCost(o Op) uint64 {
	switch o {
	case SSTORE:
		return 100
	case SLOAD, BALANCE, SELFBALANCE:
		return 20
	case TRANSFER:
		return 50
	default:
		return 1
	}
}

// Execution errors.
var (
	ErrOutOfGas       = errors.New("contract: out of gas")
	ErrStackUnderflow = errors.New("contract: stack underflow")
	ErrStackOverflow  = errors.New("contract: stack overflow")
	ErrBadJump        = errors.New("contract: jump destination out of range")
	ErrBadOpcode      = errors.New("contract: invalid opcode")
	ErrTruncatedPush  = errors.New("contract: truncated push immediate")
	ErrReverted       = errors.New("contract: execution reverted")
)

const maxStack = 256

// Word is a 32-byte VM stack word.
type Word [32]byte

// U64 interprets the low 8 bytes of the word as an unsigned integer.
func (w Word) U64() uint64 { return binary.BigEndian.Uint64(w[24:]) }

// Addr interprets the low 20 bytes of the word as an address.
func (w Word) Addr() types.Address { return types.BytesToAddress(w[12:]) }

// WordFromU64 builds a word holding v.
func WordFromU64(v uint64) Word {
	var w Word
	binary.BigEndian.PutUint64(w[24:], v)
	return w
}

// WordFromAddr builds a word holding a.
func WordFromAddr(a types.Address) Word {
	var w Word
	copy(w[12:], a[:])
	return w
}

// WordFromBool builds 1 or 0.
func WordFromBool(b bool) Word {
	if b {
		return WordFromU64(1)
	}
	return Word{}
}

// IsZero reports whether the word is all zero.
func (w Word) IsZero() bool { return w == Word{} }

// Bytes returns the word as a 32-byte slice.
func (w Word) Bytes() []byte { return w[:] }

// StateDB is the ledger surface the VM reads and mutates. *state.State
// implements it for serial execution and *state.Recorder for speculative
// execution under the parallel engine (internal/exec); the VM itself cannot
// tell the difference, which is what makes optimistic re-execution safe.
type StateDB interface {
	GetBalance(addr types.Address) uint64
	Transfer(from, to types.Address, amount uint64) error
	GetStorage(addr types.Address, slot []byte) []byte
	SetStorage(addr types.Address, slot, value []byte)
}

// Context carries the execution environment of one contract call.
type Context struct {
	State    StateDB       // the ledger state being mutated
	Contract types.Address // the contract account executing
	Caller   types.Address // the transaction sender
	Value    uint64        // value the call escrowed to the contract
	Data     []byte        // call data
	Gas      uint64        // gas budget
}

// Result reports the outcome of a call.
type Result struct {
	GasUsed  uint64
	Reverted bool
}

// stacks recycles VM stacks: a fresh 8 KB array would be zeroed on every
// call, which costs more than a short contract such as
// UnconditionalTransfer takes to run. Words above the stack pointer are
// never read, so a recycled stack needs no clearing.
var stacks = sync.Pool{New: func() any { return new([maxStack]word) }}

// Execute runs the contract code at ctx.Contract. The caller (the chain's
// transaction processor) is responsible for escrow crediting and for
// snapshotting state so a revert or error can be rolled back.
//
// The code is decoded once per distinct byte string (decode.go) and run on
// a fixed-size stack of limb words. Each op is checked in this order:
// invalid opcode, then gas, then stack underflow and overflow, then the
// op's own failure.
func Execute(ctx *Context, code []byte) (*Result, error) {
	prog := decoded.get(code)
	res := &Result{}
	gas := ctx.Gas
	var err error
	stack := stacks.Get().(*[maxStack]word)
	defer stacks.Put(stack)
	sp := 0 // words on the stack

	pc := 0
loop:
	for pc < len(prog) {
		in := &prog[pc]
		if gas < in.cost {
			gas = 0
			err = ErrOutOfGas
			break
		}
		gas -= in.cost
		if sp < int(in.minSP) {
			err = ErrStackUnderflow
			break
		}
		if sp > int(in.maxSP) {
			err = ErrStackOverflow
			break
		}
		at := pc
		pc = in.next
		switch in.op {
		case STOP:
			break loop
		case opBad:
			err = fmt.Errorf("%w: 0x%02x at pc %d", ErrBadOpcode, code[at], at)
			break loop
		case opTruncPush:
			err = ErrTruncatedPush
			break loop
		case PUSH:
			stack[sp] = in.imm
			sp++
		case POP:
			sp--
		case DUP:
			stack[sp] = stack[sp-1]
			sp++
		case SWAP:
			stack[sp-1], stack[sp-2] = stack[sp-2], stack[sp-1]
		case ADD:
			sp--
			stack[sp-1] = word{stack[sp-1][0] + stack[sp][0]}
		case SUB:
			sp--
			stack[sp-1] = word{stack[sp-1][0] - stack[sp][0]}
		case MUL:
			sp--
			stack[sp-1] = word{stack[sp-1][0] * stack[sp][0]}
		case DIV:
			sp--
			if d := stack[sp][0]; d == 0 {
				stack[sp-1] = word{}
			} else {
				stack[sp-1] = word{stack[sp-1][0] / d}
			}
		case MOD:
			sp--
			if d := stack[sp][0]; d == 0 {
				stack[sp-1] = word{}
			} else {
				stack[sp-1] = word{stack[sp-1][0] % d}
			}
		case LT:
			sp--
			stack[sp-1] = boolWord(stack[sp-1][0] < stack[sp][0])
		case GT:
			sp--
			stack[sp-1] = boolWord(stack[sp-1][0] > stack[sp][0])
		case EQ:
			sp--
			stack[sp-1] = boolWord(stack[sp-1] == stack[sp])
		case AND:
			sp--
			stack[sp-1] = boolWord(!stack[sp-1].isZero() && !stack[sp].isZero())
		case OR:
			sp--
			stack[sp-1] = boolWord(!stack[sp-1].isZero() || !stack[sp].isZero())
		case ISZERO, NOT:
			stack[sp-1] = boolWord(stack[sp-1].isZero())
		case JUMP:
			sp--
			// d == len(code) is out of range too: landing one past the end
			// would fall out of the loop as a silent STOP, turning a
			// corrupted destination into a successful call.
			d := stack[sp][0]
			if d >= uint64(len(code)) {
				err = fmt.Errorf("%w: %d", ErrBadJump, d)
				break loop
			}
			pc = int(d)
		case JUMPI:
			sp -= 2
			if !stack[sp+1].isZero() {
				d := stack[sp][0]
				if d >= uint64(len(code)) {
					err = fmt.Errorf("%w: %d", ErrBadJump, d)
					break loop
				}
				pc = int(d)
			}
		case CALLER:
			stack[sp] = limbs(WordFromAddr(ctx.Caller))
			sp++
		case CALLVALUE:
			stack[sp] = word{ctx.Value}
			sp++
		case CALLDATALOAD:
			// Bytes past the end of calldata read as zero. The offset is
			// compared before any addition: o+i would wrap for offsets near
			// 2^64 and read real calldata where the semantics require zeros.
			var w Word
			if o := stack[sp-1][0]; o < uint64(len(ctx.Data)) {
				copy(w[:], ctx.Data[o:])
			}
			stack[sp-1] = limbs(w)
		case CALLDATASIZE:
			stack[sp] = word{uint64(len(ctx.Data))}
			sp++
		case BALANCE:
			a := stack[sp-1].toWord()
			stack[sp-1] = word{ctx.State.GetBalance(a.Addr())}
		case SELFBALANCE:
			stack[sp] = word{ctx.State.GetBalance(ctx.Contract)}
			sp++
		case ADDRESS:
			stack[sp] = limbs(WordFromAddr(ctx.Contract))
			sp++
		case SLOAD:
			k := stack[sp-1].toWord()
			v := ctx.State.GetStorage(ctx.Contract, k[:])
			if len(v) > 32 {
				v = v[:32]
			}
			var w Word
			copy(w[32-len(v):], v)
			stack[sp-1] = limbs(w)
		case SSTORE:
			sp -= 2
			k := stack[sp].toWord()
			if stack[sp+1].isZero() {
				ctx.State.SetStorage(ctx.Contract, k[:], nil)
			} else {
				v := stack[sp+1].toWord()
				ctx.State.SetStorage(ctx.Contract, k[:], v[:])
			}
		case TRANSFER:
			sp -= 2
			to := stack[sp].toWord()
			if terr := ctx.State.Transfer(ctx.Contract, to.Addr(), stack[sp+1][0]); terr != nil {
				// Insufficient contract balance reverts rather than aborts,
				// mirroring a failed EVM CALL.
				res.Reverted = true
				err = fmt.Errorf("%w: %v", ErrReverted, terr)
				break loop
			}
		case REVERT:
			res.Reverted = true
			err = ErrReverted
			break loop
		}
	}
	//shardlint:ovflow gas starts at ctx.Gas and only decreases (every charge is bounds-checked first), so the spent difference cannot underflow
	res.GasUsed = ctx.Gas - gas
	return res, err
}
