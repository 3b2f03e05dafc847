package vm

import (
	"errors"
	"testing"
)

// hobj assembles a hand-written hostile object. Defaults: one module named
// "hostile", Init = 0, no imports, no globals.
func hobj(mutate func(*Object), chunks ...*Chunk) *Object {
	o := &Object{
		ModName:     "hostile",
		ExportText:  "module hostile\n",
		GlobalNames: map[string]int{},
		Chunks:      chunks,
	}
	if mutate != nil {
		mutate(o)
	}
	return o
}

// ret is a minimal well-formed chunk body: push unit, return it.
func ret() []Instr {
	return []Instr{{Op: opConstUnit}, {Op: opReturn}}
}

// TestHostileCorpus is the acceptance corpus: hand-written hostile objects,
// each engineered to violate exactly one proof obligation and be rejected
// with that obligation's distinct VerifyError kind.
func TestHostileCorpus(t *testing.T) {
	overflow := make([]Instr, 0, maxVerifyDepth+2)
	for i := 0; i <= maxVerifyDepth; i++ {
		overflow = append(overflow, Instr{Op: opConstInt, A: 1})
	}
	overflow = append(overflow, Instr{Op: opReturn})

	cases := []struct {
		name string
		kind string
		obj  *Object
	}{
		{"jump-out-of-chunk", VerifyBadJump,
			hobj(nil, &Chunk{Name: "init", Code: []Instr{{Op: opJump, A: 9}, {Op: opConstUnit}, {Op: opReturn}}})},
		{"fall-off-end", VerifyFallOff,
			hobj(nil, &Chunk{Name: "init", Code: []Instr{{Op: opConstUnit}}})},
		{"empty-chunk", VerifyFallOff,
			hobj(nil, &Chunk{Name: "init"})},
		{"return-from-empty-stack", VerifyUnderflow,
			hobj(nil, &Chunk{Name: "init", Code: []Instr{{Op: opReturn}}})},
		{"implausible-stack-growth", VerifyOverflow,
			hobj(nil, &Chunk{Name: "init", Code: overflow})},
		{"branch-join-depth-mismatch", VerifyDepthMismatch,
			hobj(nil, &Chunk{Name: "init", Code: []Instr{
				{Op: opConstBool},         // 0: push cond
				{Op: opJumpIfFalse, A: 1}, // 1: to 3 at depth 0...
				{Op: opConstInt, A: 7},    // 2: ...or fall through at depth 1
				{Op: opReturn},            // 3: joined at two depths
			}})},
		{"unknown-opcode", VerifyBadOpcode,
			hobj(nil, &Chunk{Name: "init", Code: []Instr{{Op: opMax + 3}, {Op: opReturn}}})},
		{"string-pool-escape", VerifyBadOperand,
			hobj(nil, &Chunk{Name: "init", Code: []Instr{{Op: opConstStr, A: 7}, {Op: opReturn}}})},
		{"branch-on-int", VerifyTypeConfusion,
			hobj(nil, &Chunk{Name: "init", Code: []Instr{
				{Op: opConstInt, A: 1}, {Op: opJumpIfFalse, A: 0}, {Op: opConstUnit}, {Op: opReturn}}})},
		{"capture-past-frame", VerifyBadCapture,
			hobj(func(o *Object) { o.CapSpecs = [][]CaptureRef{{{Kind: capLocal, Idx: 5}}} },
				&Chunk{Name: "init", Code: []Instr{{Op: opClosure, A: 1, B: 0}, {Op: opReturn}}},
				&Chunk{Name: "f", Code: ret()})},
		{"deopt-map-escape", VerifyQuickMap,
			hobj(nil, &Chunk{Name: "init", Code: ret(),
				Quick:    []Instr{{Op: qGetGet, W: 2}},
				quickSrc: []int32{5}})},
		{"step-weight-leak", VerifyQuickWeight,
			hobj(nil, &Chunk{Name: "init", Code: ret(),
				Quick:    []Instr{{Op: qGetGet, W: 1}},
				quickSrc: []int32{0}})},
		{"init-chunk-escape", VerifyStructure,
			hobj(func(o *Object) { o.Init = 5 }, &Chunk{Name: "init", Code: ret()})},
	}

	seenKinds := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := VerifyObject(tc.obj)
			var verr *VerifyError
			if !errors.As(err, &verr) {
				t.Fatalf("VerifyObject = %v (%T), want *VerifyError", err, err)
			}
			if verr.Kind != tc.kind {
				t.Fatalf("Kind = %q (%v), want %q", verr.Kind, verr, tc.kind)
			}
			if verr.Module != "hostile" {
				t.Errorf("Module = %q", verr.Module)
			}
			if tc.obj.Verified() {
				t.Error("rejected object carries the verified bit")
			}
			if prev, dup := seenKinds[tc.kind]; dup && tc.kind != VerifyFallOff {
				t.Errorf("kind %q already used by case %q — corpus kinds must be distinct", tc.kind, prev)
			}
			seenKinds[tc.kind] = tc.name
		})
	}
	if len(seenKinds) < 10 {
		t.Errorf("corpus covers %d distinct kinds, want >= 10", len(seenKinds))
	}
}

// TestVerifyErrorRendering pins the diagnostic format operators see.
func TestVerifyErrorRendering(t *testing.T) {
	e := &VerifyError{Module: "M", Chunk: 2, Name: "loop", PC: 7, Quick: true,
		Kind: VerifyQuickWeight, Msg: "boom"}
	want := "vm: verify M: chunk 2 (loop) [quick] pc 7: quick-weight: boom"
	if got := e.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

// TestVerifyCaching proves one verification serves every install: the
// second call returns the identical cached result.
func TestVerifyCaching(t *testing.T) {
	o := hobj(nil, &Chunk{Name: "init", Code: ret()})
	info1, err := VerifyObject(o)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Verified() {
		t.Fatal("verified bit not set")
	}
	info2, err := VerifyObject(o)
	if err != nil || info2 != info1 {
		t.Errorf("second VerifyObject = (%p, %v), want cached (%p, nil)", info2, err, info1)
	}
}

// TestVerifierAcceptsHandlerEdge pins the subtle control edge: a handler
// target is entered at install-time depth (the interpreter truncates the
// stack on unwind), so push-handler joins at the current depth and a
// protected body that pushes more is still sound.
func TestVerifierAcceptsHandlerEdge(t *testing.T) {
	o := hobj(func(o *Object) { o.StrPool = []string{"e"} },
		&Chunk{Name: "init", Code: []Instr{
			{Op: opPushHandler, A: 4}, // 0: handler at 5, depth 0
			{Op: opConstInt, A: 1},    // 1
			{Op: opConstInt, A: 2},    // 2
			{Op: opAdd},               // 3
			{Op: opPopHandler},        // 4 -> falls into 5 at depth 1
			{Op: opReturn},            // 5: handler entry (depth 0+1 pushed exn)... joined
		}})
	// The handler edge joins pc 5 at depth 0 while the fallthrough arrives
	// at depth 1 — this IS a depth mismatch and the verifier must say so,
	// proving the edge is modeled at all.
	_, err := VerifyObject(o)
	var verr *VerifyError
	if !errors.As(err, &verr) || verr.Kind != VerifyDepthMismatch {
		t.Fatalf("handler-edge object: got %v, want depth-mismatch", err)
	}
}
