package vm

import (
	"strings"
	"testing"
)

// disasmSrc exercises every disassembler-relevant shape: a for loop (fused
// head and counter increment), string and hashtable natives (predicted call
// sites) and tuples.
const disasmSrc = `
let tbl = Hashtbl.create 16

let scan s =
  let n = String.length s in
  let acc = Safestd.ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + String.get s i
  done;
  !acc

let stash k v = Hashtbl.add tbl k v
let find k = (Hashtbl.find tbl k) + 1
let pair a b = (a, b + 1)
`

func compileDisasmObj(t *testing.T, level int) *Object {
	t.Helper()
	l := StdLoader(NewMachine())
	obj, _, err := CompileLevel("Scan", disasmSrc, l.SigEnv(), level)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return obj
}

func TestDisassembleQuickenedTrusted(t *testing.T) {
	out := Disassemble(compileDisasmObj(t, 1))
	for _, want := range []string{
		"module Scan",
		"quickened (",
		"q.gg_cmp_jf", // loop head
		"q.inc_local", // loop counter
		"q.str_get",
		"q.htbl_find",
		"; wire ", // every quickened line maps back to a wire pc
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestDisassembleNaiveHasNoQuickened(t *testing.T) {
	out := Disassemble(compileDisasmObj(t, 0))
	if strings.Contains(out, "quickened") || strings.Contains(out, "q.") {
		t.Errorf("-O0 disassembly shows quickened code:\n%s", out)
	}
}

// TestDisassembleRoundTrip pushes the object through the wire format the
// way swc -d does — encode, decode, quicken, disassemble —
// and then replays the decode on every truncation of the byte stream.
// Truncated objects must be rejected by DecodeObject or survive
// Disassemble; nothing may panic.
func TestDisassembleRoundTrip(t *testing.T) {
	obj := compileDisasmObj(t, 1)
	enc := obj.Encode()

	dec, err := DecodeObject(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := VerifyObject(dec); err != nil {
		t.Fatalf("verify: %v", err)
	}
	OptimizeObject(dec, false)
	out := Disassemble(dec)
	if !strings.Contains(out, "module Scan") || !strings.Contains(out, "quickened (") {
		t.Fatalf("round-tripped disassembly malformed:\n%s", out)
	}
	// One rule set: a decoded object quickens exactly like the compiler's.
	if want := Disassemble(obj); out != want {
		t.Errorf("decoded object quickened differently from the compiled one:\n%s\n--- compiled:\n%s", out, want)
	}

	for i := 0; i <= len(enc); i++ {
		tr, err := DecodeObject(enc[:i])
		if err != nil {
			continue
		}
		if i < len(enc) {
			// Only the full stream should decode cleanly; if a prefix
			// does, the disassembler must still cope with it.
			t.Logf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
		if _, err := VerifyObject(tr); err == nil {
			OptimizeObject(tr, false)
		}
		_ = Disassemble(tr)
	}
}

// TestDisassembleHostileBytes flips bytes in a valid encoding; whatever
// DecodeObject lets through must disassemble without panicking.
func TestDisassembleHostileBytes(t *testing.T) {
	enc := compileDisasmObj(t, 1).Encode()
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		obj, err := DecodeObject(mut)
		if err != nil {
			continue
		}
		if _, err := VerifyObject(obj); err == nil {
			OptimizeObject(obj, false)
		}
		_ = Disassemble(obj)
	}
}

// TestDisassembleUnknownOpcodes feeds the formatter hand-built chunks a
// verifier would reject: out-of-range opcodes, a string-pool index past
// the end, and garbage in the quickened stream. The contract is
// width-safety — render something, never panic.
func TestDisassembleUnknownOpcodes(t *testing.T) {
	obj := &Object{
		ModName: "Evil",
		StrPool: []string{"only"},
		Chunks: []*Chunk{{
			Name: "bad",
			Code: []Instr{
				{Op: 0xfe, A: 7, B: 9},
				{Op: opConstStr, A: 99},
				{Op: qIncL, A: 1}, // quickened op leaked into wire code
				{Op: opReturn},
			},
			Quick:    []Instr{{Op: 0xfd, A: 1, B: 2}, {Op: qMax, W: 3}},
			quickSrc: []int32{0},
		}},
	}
	out := Disassemble(obj)
	for _, want := range []string{
		"unknown opcode",
		"out of range",
		"q.inc_local",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}
