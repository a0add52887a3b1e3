package contract

import (
	"fmt"
	"testing"

	"contractshard/internal/state"
	"contractshard/internal/types"
)

// oracleExecute is the reference interpreter: the closure-based,
// byte-at-a-time Execute the decoded VM replaced, kept verbatim apart from
// its name (test files are not linted, so its ovflow waiver is dropped).
// FuzzExecute and the targeted VM tests check Execute against it
// on result, error text and post-state root.
func oracleExecute(ctx *Context, code []byte) (*Result, error) {
	res := &Result{}
	var stack []Word
	gas := ctx.Gas

	use := func(n uint64) error {
		if gas < n {
			gas = 0
			res.GasUsed = ctx.Gas
			return ErrOutOfGas
		}
		gas -= n
		return nil
	}
	pop := func() (Word, error) {
		if len(stack) == 0 {
			return Word{}, ErrStackUnderflow
		}
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return w, nil
	}
	push := func(w Word) error {
		if len(stack) >= maxStack {
			return ErrStackOverflow
		}
		stack = append(stack, w)
		return nil
	}
	pop2 := func() (Word, Word, error) {
		b, err := pop()
		if err != nil {
			return Word{}, Word{}, err
		}
		a, err := pop()
		if err != nil {
			return Word{}, Word{}, err
		}
		return a, b, nil
	}
	done := func(err error) (*Result, error) {
		res.GasUsed = ctx.Gas - gas
		return res, err
	}

	pc := 0
	for pc < len(code) {
		op := Op(code[pc])
		if op >= opCount {
			return done(fmt.Errorf("%w: 0x%02x at pc %d", ErrBadOpcode, byte(op), pc))
		}
		if err := use(gasCost(op)); err != nil {
			return done(err)
		}
		pc++
		switch op {
		case STOP:
			return done(nil)
		case PUSH:
			if pc >= len(code) {
				return done(ErrTruncatedPush)
			}
			n := int(code[pc])
			pc++
			if n > 32 || pc+n > len(code) {
				return done(ErrTruncatedPush)
			}
			var w Word
			copy(w[32-n:], code[pc:pc+n])
			pc += n
			if err := push(w); err != nil {
				return done(err)
			}
		case POP:
			if _, err := pop(); err != nil {
				return done(err)
			}
		case DUP:
			if len(stack) == 0 {
				return done(ErrStackUnderflow)
			}
			if err := push(stack[len(stack)-1]); err != nil {
				return done(err)
			}
		case SWAP:
			if len(stack) < 2 {
				return done(ErrStackUnderflow)
			}
			stack[len(stack)-1], stack[len(stack)-2] = stack[len(stack)-2], stack[len(stack)-1]
		case ADD, SUB, MUL, DIV, MOD, LT, GT, EQ, AND, OR:
			a, b, err := pop2()
			if err != nil {
				return done(err)
			}
			var out Word
			switch op {
			case ADD:
				out = WordFromU64(a.U64() + b.U64())
			case SUB:
				out = WordFromU64(a.U64() - b.U64())
			case MUL:
				out = WordFromU64(a.U64() * b.U64())
			case DIV:
				if b.U64() == 0 {
					out = Word{}
				} else {
					out = WordFromU64(a.U64() / b.U64())
				}
			case MOD:
				if b.U64() == 0 {
					out = Word{}
				} else {
					out = WordFromU64(a.U64() % b.U64())
				}
			case LT:
				out = WordFromBool(a.U64() < b.U64())
			case GT:
				out = WordFromBool(a.U64() > b.U64())
			case EQ:
				out = WordFromBool(a == b)
			case AND:
				out = WordFromBool(!a.IsZero() && !b.IsZero())
			case OR:
				out = WordFromBool(!a.IsZero() || !b.IsZero())
			}
			if err := push(out); err != nil {
				return done(err)
			}
		case ISZERO, NOT:
			a, err := pop()
			if err != nil {
				return done(err)
			}
			if err := push(WordFromBool(a.IsZero())); err != nil {
				return done(err)
			}
		case JUMP:
			dest, err := pop()
			if err != nil {
				return done(err)
			}
			d := dest.U64()
			// d == len(code) is out of range too: landing one past the end
			// would fall out of the loop as a silent STOP, turning a
			// corrupted destination into a successful call.
			if d >= uint64(len(code)) {
				return done(fmt.Errorf("%w: %d", ErrBadJump, d))
			}
			pc = int(d)
		case JUMPI:
			dest, cond, err := func() (Word, Word, error) {
				c, err := pop()
				if err != nil {
					return Word{}, Word{}, err
				}
				d, err := pop()
				return d, c, err
			}()
			if err != nil {
				return done(err)
			}
			if !cond.IsZero() {
				d := dest.U64()
				if d >= uint64(len(code)) {
					return done(fmt.Errorf("%w: %d", ErrBadJump, d))
				}
				pc = int(d)
			}
		case CALLER:
			if err := push(WordFromAddr(ctx.Caller)); err != nil {
				return done(err)
			}
		case CALLVALUE:
			if err := push(WordFromU64(ctx.Value)); err != nil {
				return done(err)
			}
		case CALLDATALOAD:
			off, err := pop()
			if err != nil {
				return done(err)
			}
			// Bytes past the end of calldata read as zero. The offset is
			// compared before any addition: o+i would wrap for offsets near
			// 2^64 and read real calldata where the semantics require zeros.
			var w Word
			if o := off.U64(); o < uint64(len(ctx.Data)) {
				copy(w[:], ctx.Data[o:])
			}
			if err := push(w); err != nil {
				return done(err)
			}
		case CALLDATASIZE:
			if err := push(WordFromU64(uint64(len(ctx.Data)))); err != nil {
				return done(err)
			}
		case BALANCE:
			a, err := pop()
			if err != nil {
				return done(err)
			}
			if err := push(WordFromU64(ctx.State.GetBalance(a.Addr()))); err != nil {
				return done(err)
			}
		case SELFBALANCE:
			if err := push(WordFromU64(ctx.State.GetBalance(ctx.Contract))); err != nil {
				return done(err)
			}
		case ADDRESS:
			if err := push(WordFromAddr(ctx.Contract)); err != nil {
				return done(err)
			}
		case SLOAD:
			k, err := pop()
			if err != nil {
				return done(err)
			}
			var w Word
			v := ctx.State.GetStorage(ctx.Contract, k[:])
			if len(v) > 32 {
				v = v[:32]
			}
			copy(w[32-len(v):], v)
			if err := push(w); err != nil {
				return done(err)
			}
		case SSTORE:
			k, v, err := pop2()
			if err != nil {
				return done(err)
			}
			if v.IsZero() {
				ctx.State.SetStorage(ctx.Contract, k[:], nil)
			} else {
				ctx.State.SetStorage(ctx.Contract, k[:], v[:])
			}
		case TRANSFER:
			to, amount, err := pop2()
			if err != nil {
				return done(err)
			}
			if err := ctx.State.Transfer(ctx.Contract, to.Addr(), amount.U64()); err != nil {
				// Insufficient contract balance reverts rather than aborts,
				// mirroring a failed EVM CALL.
				res.Reverted = true
				return done(fmt.Errorf("%w: %v", ErrReverted, err))
			}
		case REVERT:
			res.Reverted = true
			return done(ErrReverted)
		}
	}
	return done(nil)
}

// Addresses of the differential runs: the executing contract, the caller
// and a funded third account the programs can read or pay.
var (
	diffContract = addr(0xCC)
	diffCaller   = addr(0xAA)
	diffPayee    = addr(0xDD)
)

// diffState is the state every differential run starts from: a funded
// contract holding two storage slots, a funded caller and payee.
func diffState(t testing.TB) *state.State {
	t.Helper()
	st := state.New()
	for a, bal := range map[types.Address]uint64{diffContract: 1 << 20, diffCaller: 1 << 30, diffPayee: 7} {
		if err := st.AddBalance(a, bal); err != nil {
			t.Fatal(err)
		}
	}
	st.SetStorage(diffContract, WordFromU64(0).Bytes(), WordFromU64(41).Bytes())
	st.SetStorage(diffContract, WordFromU64(1).Bytes(), WordFromAddr(diffPayee).Bytes())
	return st
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstOracle runs code through Execute and oracleExecute on copies
// of one seeded state and fails on any difference in the result, the error
// text or the post-state root. It returns Execute's outcome and post-state.
func checkAgainstOracle(t testing.TB, code, data []byte, value, gas uint64) (*Result, *state.State, error) {
	t.Helper()
	base := diffState(t)
	run := func(exec func(*Context, []byte) (*Result, error)) (*Result, *state.State, error) {
		st := base.Copy()
		res, err := exec(&Context{
			State: st, Contract: diffContract, Caller: diffCaller,
			Value: value, Data: data, Gas: gas,
		}, code)
		return res, st, err
	}
	got, gotSt, gotErr := run(Execute)
	want, wantSt, wantErr := run(oracleExecute)
	if *got != *want || errText(gotErr) != errText(wantErr) {
		t.Fatalf("code %x gas %d: Execute = %+v, %s; oracle = %+v, %s",
			code, gas, *got, errText(gotErr), *want, errText(wantErr))
	}
	if gotSt.Root() != wantSt.Root() {
		t.Fatalf("code %x gas %d: post-state root differs from the oracle's", code, gas)
	}
	return got, gotSt, gotErr
}

// FuzzExecute is the differential target for the decoded VM: on any code,
// calldata, call value and gas budget, Execute must agree with the
// reference interpreter on the result, the error text and the post-state
// root. The budget is capped so a looping program stays fast. The seed
// corpus is testdata/fuzz/FuzzExecute: the assembler's contracts, a loop,
// and truncated, oversized and invalid byte strings.
func FuzzExecute(f *testing.F) {
	f.Fuzz(func(t *testing.T, code, data []byte, value, gas uint64) {
		checkAgainstOracle(t, code, data, value, gas%200_000)
	})
}
