package contract

import (
	"errors"
	"sync"
	"testing"

	"contractshard/internal/state"
)

// loopProgram is an arithmetic loop of n iterations over an accumulator,
// ending in an SSTORE of the accumulator under the CALLER slot — the shape
// of the compute-bound contract in the end-to-end benchmark.
func loopProgram(n uint64) []byte {
	return NewProgram().
		PushU64(1). // acc
		PushU64(n). // i
		Label("loop").
		Op(DUP, ISZERO).
		PushLabel("end").
		Op(SWAP, JUMPI). // if i == 0 goto end
		PushU64(1).
		Op(SUB, SWAP). // [i-1, acc]
		PushU64(3).
		Op(MUL).
		PushU64(7).
		Op(ADD, SWAP). // [acc*3+7, i-1]
		PushLabel("loop").
		Op(JUMP).
		Label("end").
		Op(POP, CALLER, SWAP, SSTORE, STOP).
		MustAssemble()
}

// TestJumpIntoPushImmediate: the VM has no JUMPDEST, so a jump may land
// inside a PUSH immediate and must execute the immediate's bytes as code.
func TestJumpIntoPushImmediate(t *testing.T) {
	code := []byte{
		byte(PUSH), 1, 6, byte(JUMP), // jump to offset 6
		byte(PUSH), 6, // offset 4: its immediate is offsets 6..11
		byte(PUSH), 1, 7, byte(CALLVALUE), byte(SSTORE), byte(STOP),
	}
	res, st, err := checkAgainstOracle(t, code, nil, 99, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.GetStorage(diffContract, WordFromU64(7).Bytes()); limbs(wordOf(got))[0] != 99 {
		t.Fatalf("slot 7 = %x, want the call value 99", got)
	}
	// PUSH, JUMP, then PUSH, CALLVALUE, SSTORE, STOP from inside the immediate.
	if res.GasUsed != 1+1+1+1+100+1 {
		t.Fatalf("gas used %d", res.GasUsed)
	}
}

// TestTruncatedPushOnlyByJump: straight-line execution sees a well-formed
// PUSH whose immediate is a PUSH opcode; jumping onto that byte finds a
// PUSH with no length byte.
func TestTruncatedPushOnlyByJump(t *testing.T) {
	tail := []byte{byte(PUSH), 1, byte(PUSH)} // offsets 4..6
	straight := append([]byte{byte(PUSH), 1, 0, byte(POP)}, tail...)
	if _, _, err := checkAgainstOracle(t, straight, nil, 0, 1000); err != nil {
		t.Fatalf("straight-line run: %v", err)
	}
	jumped := append([]byte{byte(PUSH), 1, 6, byte(JUMP)}, tail...)
	res, _, err := checkAgainstOracle(t, jumped, nil, 0, 1000)
	if !errors.Is(err, ErrTruncatedPush) {
		t.Fatalf("jump onto the trailing PUSH: %v, want ErrTruncatedPush", err)
	}
	if res.GasUsed != 3 { // PUSH, JUMP, and the truncated PUSH is charged
		t.Fatalf("gas used %d, want 3", res.GasUsed)
	}
}

// TestBadOpcodeBeforeGas: an invalid opcode is reported as such even when
// no gas is left to charge for it.
func TestBadOpcodeBeforeGas(t *testing.T) {
	res, _, err := checkAgainstOracle(t, []byte{byte(PUSH), 0, 0xEE}, nil, 0, 1)
	if !errors.Is(err, ErrBadOpcode) || errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v, want ErrBadOpcode", err)
	}
	if res.GasUsed != 1 {
		t.Fatalf("gas used %d, want 1", res.GasUsed)
	}
	if _, _, err := checkAgainstOracle(t, []byte{0xEE}, nil, 0, 0); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("zero budget: err = %v, want ErrBadOpcode", err)
	}
}

// TestOutOfGasOnLastOp: a budget that covers every op but the last fails
// on it with the whole budget spent and no effect of that op; one more
// unit of gas succeeds.
func TestOutOfGasOnLastOp(t *testing.T) {
	code := NewProgram().PushU64(5).PushU64(9).Op(SSTORE).MustAssemble()
	const need = 1 + 1 + 100
	res, st, err := checkAgainstOracle(t, code, nil, 0, need-1)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v, want ErrOutOfGas", err)
	}
	if res.GasUsed != need-1 {
		t.Fatalf("gas used %d, want the full budget %d", res.GasUsed, need-1)
	}
	if v := st.GetStorage(diffContract, WordFromU64(5).Bytes()); v != nil {
		t.Fatalf("the unpaid SSTORE wrote %x", v)
	}
	res, _, err = checkAgainstOracle(t, code, nil, 0, need)
	if err != nil || res.GasUsed != need {
		t.Fatalf("exact budget: %+v, %v", res, err)
	}
}

// TestDupLoopOverflow: a loop that grows the stack by one word per turn
// overflows on the DUP that would push the 257th word.
func TestDupLoopOverflow(t *testing.T) {
	code := NewProgram().PushLabel("top").Label("top").Op(DUP, DUP, JUMP).MustAssemble()
	res, _, err := checkAgainstOracle(t, code, nil, 0, 10_000)
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v, want ErrStackOverflow", err)
	}
	// PUSH, 254 full turns, then the DUP reaching 256 words and the DUP
	// that overflows.
	if res.GasUsed != 1+254*3+2 {
		t.Fatalf("gas used %d, want %d", res.GasUsed, 1+254*3+2)
	}
}

// TestSharedCodeConcurrentStates runs one code string from eight
// goroutines over separate states, as the parallel engine's workers do;
// run under -race. Every run must match the oracle's serial outcome.
func TestSharedCodeConcurrentStates(t *testing.T) {
	code := loopProgram(37) // unique to this test, so the first calls race on the cache miss
	want, wantSt, wantErr := checkAgainstOracle(t, code, nil, 0, 100_000)
	base := diffState(t)
	const workers = 8
	type outcome struct {
		res  *Result
		err  error
		root [32]byte
	}
	out := make([]outcome, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for w := range out {
		st := base.Copy()
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			res, err := Execute(&Context{State: st, Contract: diffContract, Caller: diffCaller, Gas: 100_000}, code)
			out[w] = outcome{res, err, st.Root()}
		}()
	}
	start.Done()
	done.Wait()
	for w, o := range out {
		if *o.res != *want || errText(o.err) != errText(wantErr) || o.root != wantSt.Root() {
			t.Fatalf("worker %d: %+v, %v; want %+v, %v", w, *o.res, o.err, *want, wantErr)
		}
	}
}

// TestCodeCacheBound executes more distinct codes than the cache holds:
// each runs correctly, the cache never exceeds its bound, and an evicted
// code decodes again on its next call.
func TestCodeCacheBound(t *testing.T) {
	code := func(i int) []byte {
		return NewProgram().PushU64(0xC0DE0000+uint64(i)).PushU64(3).Op(SSTORE, STOP).MustAssemble()
	}
	check := func(i int) {
		t.Helper()
		st := state.New()
		if _, err := Execute(&Context{State: st, Contract: diffContract, Gas: 1000}, code(i)); err != nil {
			t.Fatalf("code %d: %v", i, err)
		}
		if got := st.GetStorage(diffContract, WordFromU64(0xC0DE0000+uint64(i)).Bytes()); limbs(wordOf(got))[0] != 3 {
			t.Fatalf("code %d stored %x", i, got)
		}
		decoded.mu.RLock()
		n := len(decoded.progs)
		decoded.mu.RUnlock()
		if n > codeCacheSize {
			t.Fatalf("cache holds %d programs, bound %d", n, codeCacheSize)
		}
	}
	const codes = codeCacheSize + 50
	for i := range codes {
		check(i)
	}
	decoded.mu.RLock()
	n := len(decoded.progs)
	decoded.mu.RUnlock()
	if n != codeCacheSize {
		t.Fatalf("cache holds %d programs after %d codes, want it full at %d", n, codes, codeCacheSize)
	}
	for i := range 10 { // evicted by now
		check(i)
	}
}

// wordOf right-aligns a storage value into a word, as SLOAD does.
func wordOf(v []byte) Word {
	var w Word
	copy(w[32-len(v):], v)
	return w
}

func BenchmarkExecuteLoop(b *testing.B) {
	code := loopProgram(1000)
	st := diffState(b)
	ctx := &Context{State: st, Contract: diffContract, Caller: diffCaller, Gas: 100_000}
	b.ReportAllocs()
	for range b.N {
		if _, err := Execute(ctx, code); err != nil {
			b.Fatal(err)
		}
		st.DiscardJournal()
	}
}

func BenchmarkExecuteUnconditionalTransfer(b *testing.B) {
	code := UnconditionalTransfer(diffPayee)
	st := diffState(b)
	if err := st.AddBalance(diffContract, 1<<40); err != nil {
		b.Fatal(err)
	}
	ctx := &Context{State: st, Contract: diffContract, Caller: diffCaller, Value: 1, Gas: 1000}
	b.ReportAllocs()
	for range b.N {
		if _, err := Execute(ctx, code); err != nil {
			b.Fatal(err)
		}
		st.DiscardJournal()
	}
}

// push is a PUSH of the given immediate bytes.
func push(imm ...byte) []byte { return append([]byte{byte(PUSH), byte(len(imm))}, imm...) }

// high is a 9-byte immediate: 1 in the byte just above the low limb, low
// in the last byte. Arithmetic sees only low; EQ, ISZERO, AND and OR see
// the whole word.
func high(low byte) []byte { return push(1, 0, 0, 0, 0, 0, 0, 0, low) }

// TestFullWidthWords checks the ops that read beyond the low limb, and the
// ones that must ignore it, on words whose upper bytes are set.
func TestFullWidthWords(t *testing.T) {
	store := func(slot byte) []byte { return append(push(slot), byte(SWAP), byte(SSTORE)) }
	cases := []struct {
		name string
		code []byte
		want uint64 // low limb of slot 0 afterwards
	}{
		{"eq", concat(high(5), push(5), []byte{byte(EQ)}, store(0)), 0},
		{"iszero", concat(high(0), []byte{byte(ISZERO)}, store(0)), 0},
		{"not", concat(high(0), []byte{byte(NOT)}, store(0)), 0},
		{"and", concat(high(0), push(1), []byte{byte(AND)}, store(0)), 1},
		{"or", concat(push(), high(0), []byte{byte(OR)}, store(0)), 1},
		{"add", concat(high(2), push(3), []byte{byte(ADD)}, store(0)), 5},
		{"lt", concat(high(2), push(3), []byte{byte(LT)}, store(0)), 1},
		{"jump", concat(high(13), []byte{byte(JUMP), byte(STOP)}, push(9), store(0)), 9},
		{"sstore-wide", concat(high(7), store(0)), 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, st, err := checkAgainstOracle(t, c.code, nil, 0, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if got := limbs(wordOf(st.GetStorage(diffContract, WordFromU64(0).Bytes())))[0]; got != c.want {
				t.Fatalf("slot 0 = %d, want %d", got, c.want)
			}
		})
	}
	// A wide storage key addresses its own slot, not the one of its low
	// limb, and BALANCE ignores the bytes above an address.
	code := concat(high(4), push(9), []byte{byte(SSTORE)},
		push(append([]byte{0xAB, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, diffPayee[:]...)...),
		[]byte{byte(BALANCE)}, store(1))
	_, st, err := checkAgainstOracle(t, code, nil, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var wide Word
	wide[23], wide[31] = 1, 4
	if got := st.GetStorage(diffContract, wide[:]); limbs(wordOf(got))[0] != 9 {
		t.Fatalf("wide slot = %x, want 9", got)
	}
	if got := st.GetStorage(diffContract, WordFromU64(4).Bytes()); got != nil {
		t.Fatalf("the wide key's low limb slot was written: %x", got)
	}
	if got := st.GetStorage(diffContract, WordFromU64(1).Bytes()); limbs(wordOf(got))[0] != 7 {
		t.Fatalf("BALANCE of a dirty-high address word = %x, want the payee's 7", got)
	}
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
