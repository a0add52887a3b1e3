package contract

import (
	"encoding/binary"
	"sync"
)

// word is a stack word as four 64-bit limbs, least significant first: w[0]
// holds bytes 24..31 of the equivalent Word (the part arithmetic reads),
// w[3] bytes 0..7. The interpreter runs on words and converts to Word only
// where a value crosses into the StateDB or the call context.
type word [4]uint64

func (w *word) isZero() bool { return w[0]|w[1]|w[2]|w[3] == 0 }

func (w *word) toWord() Word {
	var out Word
	binary.BigEndian.PutUint64(out[0:], w[3])
	binary.BigEndian.PutUint64(out[8:], w[2])
	binary.BigEndian.PutUint64(out[16:], w[1])
	binary.BigEndian.PutUint64(out[24:], w[0])
	return out
}

func limbs(w Word) word {
	return word{
		binary.BigEndian.Uint64(w[24:]),
		binary.BigEndian.Uint64(w[16:]),
		binary.BigEndian.Uint64(w[8:]),
		binary.BigEndian.Uint64(w[0:]),
	}
}

func boolWord(b bool) word {
	if b {
		return word{1}
	}
	return word{}
}

// Pseudo-opcodes for offsets that cannot execute. They sit past opCount, so
// no byte of code decodes to them directly.
const (
	opBad       = opCount + iota // the byte is not an opcode
	opTruncPush                  // PUSH whose length byte or immediate runs past the code, or is longer than 32
)

// instr is the decoded instruction starting at one code offset.
type instr struct {
	imm  word   // PUSH immediate
	cost uint64 // gas charged before the op runs; 0 for opBad, which fails first
	next int    // offset of the following instruction
	// The op underflows when fewer than minSP words are on the stack and
	// overflows when more than maxSP are.
	minSP, maxSP int16
	op           Op
}

// stackEffect gives the words each opcode pops and pushes.
var stackEffect = [opCount]struct{ pop, push int16 }{
	PUSH: {0, 1}, POP: {1, 0}, DUP: {1, 2}, SWAP: {2, 2},
	ADD: {2, 1}, SUB: {2, 1}, MUL: {2, 1}, DIV: {2, 1}, MOD: {2, 1},
	LT: {2, 1}, GT: {2, 1}, EQ: {2, 1}, AND: {2, 1}, OR: {2, 1},
	ISZERO: {1, 1}, NOT: {1, 1}, JUMP: {1, 0}, JUMPI: {2, 0},
	CALLER: {0, 1}, CALLVALUE: {0, 1}, CALLDATALOAD: {1, 1}, CALLDATASIZE: {0, 1},
	BALANCE: {1, 1}, SELFBALANCE: {0, 1}, ADDRESS: {0, 1},
	SLOAD: {1, 1}, SSTORE: {2, 0}, TRANSFER: {2, 0},
}

// decode builds the instruction table of code with one entry per byte
// offset. The VM has no JUMPDEST: any offset below len(code) is a legal jump
// target, the middle of a PUSH immediate included, so every offset is
// decoded as if execution started there.
func decode(code []byte) []instr {
	prog := make([]instr, len(code))
	for pc := range code {
		in := &prog[pc]
		in.op = Op(code[pc])
		in.next = pc + 1
		in.maxSP = maxStack
		if in.op >= opCount {
			in.op = opBad
			continue
		}
		in.cost = gasCost(in.op)
		eff := stackEffect[in.op]
		in.minSP = eff.pop
		if eff.push > eff.pop {
			in.maxSP = maxStack - (eff.push - eff.pop)
		}
		if in.op != PUSH {
			continue
		}
		start := pc + 2
		if start > len(code) || int(code[pc+1]) > 32 || start+int(code[pc+1]) > len(code) {
			// Charged its gas, then fails whatever the stack holds.
			in.op, in.minSP, in.maxSP = opTruncPush, 0, maxStack
			continue
		}
		n := int(code[pc+1])
		var w Word
		copy(w[32-n:], code[start:start+n])
		in.imm = limbs(w)
		in.next = start + n
	}
	return prog
}

// codeCacheSize bounds the number of decoded programs kept. Contract code is
// installed only at genesis, so a process runs a handful of distinct codes;
// the bound matters only to a process that hosts many different chains.
const codeCacheSize = 256

// codeCache maps exact code bytes to their decoded table. Tables are never
// mutated after decode, so a hit is shared freely between goroutines (the
// parallel engine executes one contract from many workers at once).
type codeCache struct {
	mu    sync.RWMutex
	progs map[string][]instr
	// order holds the cached keys in insertion order; once the cache is
	// full, order[next] is the oldest and is evicted first.
	order [codeCacheSize]string
	next  int
}

var decoded = codeCache{progs: make(map[string][]instr, codeCacheSize)}

// get returns the decoded table of code, decoding and caching it on a miss.
func (c *codeCache) get(code []byte) []instr {
	c.mu.RLock()
	prog, ok := c.progs[string(code)]
	c.mu.RUnlock()
	if ok {
		return prog
	}
	prog = decode(code)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.progs[string(code)]; ok {
		return cached
	}
	if len(c.progs) >= codeCacheSize {
		delete(c.progs, c.order[c.next])
	}
	key := string(code)
	c.progs[key] = prog
	c.order[c.next] = key
	c.next = (c.next + 1) % codeCacheSize
	return prog
}
