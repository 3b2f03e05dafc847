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

	// Inline-cache site operands of specialized calls: only q.str_sub owns
	// a slot, and it must index below NICSites. These repeat the
	// bad-operand kind, so they stay out of the distinct-kinds count.
	siteCases := []struct {
		name string
		obj  *Object
	}{
		{"str-sub-site-at-table-end", specCallObj(qStrSub, 3, 1, 1, "String", "sub")},
		{"htbl-find-carries-site", specCallObj(qHtblFind, 2, 1, 2, "Hashtbl", "find")},
	}

	seenKinds := map[string]string{}
	reject := func(t *testing.T, kind string, obj *Object) {
		t.Helper()
		_, err := VerifyObject(obj)
		var verr *VerifyError
		if !errors.As(err, &verr) {
			t.Fatalf("VerifyObject = %v (%T), want *VerifyError", err, err)
		}
		if verr.Kind != kind {
			t.Fatalf("Kind = %q (%v), want %q", verr.Kind, verr, kind)
		}
		if verr.Module != "hostile" {
			t.Errorf("Module = %q", verr.Module)
		}
		if _, again := VerifyObject(obj); again != err {
			t.Errorf("second VerifyObject = %v, want the cached rejection", again)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reject(t, tc.kind, tc.obj)
			if prev, dup := seenKinds[tc.kind]; dup && tc.kind != VerifyFallOff {
				t.Errorf("kind %q already used by case %q — corpus kinds must be distinct", tc.kind, prev)
			}
			seenKinds[tc.kind] = tc.name
		})
	}
	for _, tc := range siteCases {
		t.Run(tc.name, func(t *testing.T) { reject(t, VerifyBadOperand, tc.obj) })
	}
	if len(seenKinds) < 10 {
		t.Errorf("corpus covers %d distinct kinds, want >= 10", len(seenKinds))
	}
	// The same shape with the site inside the table verifies, so the
	// site cases above fail on their operand and nothing else.
	if _, err := VerifyObject(specCallObj(qStrSub, 3, 0, 1, "String", "sub")); err != nil {
		t.Errorf("well-formed q.str_sub rejected: %v", err)
	}
}

// specCallObj is a one-chunk object whose quickened stream makes one
// specialized call of module.name with argc int arguments, carrying
// inline-cache site ic, in an object of nIC sites.
func specCallObj(op byte, argc, ic int64, nIC int, module, name string) *Object {
	code := []Instr{{Op: opImportGet}}
	for i := int64(0); i < argc; i++ {
		code = append(code, Instr{Op: opConstInt, A: i})
	}
	code = append(code, Instr{Op: opCall, A: argc}, Instr{Op: opReturn})
	quick := append([]Instr(nil), code...)
	quick[argc+1] = Instr{Op: op, W: 1, A: argc | ic<<8}
	src := make([]int32, len(code))
	for i := range src {
		src[i] = int32(i)
	}
	return hobj(func(o *Object) {
		o.Imports = []ImportRef{{Module: module, Names: []string{name}}}
		o.NICSites = nIC
	}, &Chunk{Name: "init", Code: code, Quick: quick, quickSrc: src})
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
