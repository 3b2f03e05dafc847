package vm

import (
	"fmt"
	"strings"
)

// Disassemble renders an object file in a human-readable form: header,
// imports with digests, export signature, and each chunk's instructions.
// When a chunk carries quickened code (the object went through
// OptimizeObject — e.g. swc -d), the quickened form is printed after
// the wire form, with each superinstruction's step weight and the wire pc
// it covers, so the two listings can be read side by side.
// cmd/swc uses it; it is also invaluable when debugging switchlets.
func Disassemble(o *Object) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n", o.ModName)
	fmt.Fprintf(&sb, "globals: %d, init chunk: %d\n", o.NGlobals, o.Init)
	if len(o.Imports) > 0 {
		sb.WriteString("imports:\n")
		for i, im := range o.Imports {
			fmt.Fprintf(&sb, "  [%d] %s.%s (sig %x)\n", i, im.Module, strings.Join(im.Names, ","), im.Digest[:4])
		}
	}
	fmt.Fprintf(&sb, "export digest: %x\n", o.ExportDigest[:])
	sb.WriteString("export signature:\n")
	for _, ln := range strings.Split(strings.TrimRight(o.ExportText, "\n"), "\n") {
		fmt.Fprintf(&sb, "  %s\n", ln)
	}
	for ci, c := range o.Chunks {
		fmt.Fprintf(&sb, "\nchunk %d: %s (params=%d locals=%d)\n", ci, c.Name, c.NParams, c.NLocals)
		for pc, ins := range c.Code {
			sb.WriteString(formatInstr(o, pc, ins))
			sb.WriteByte('\n')
		}
		if c.Quick != nil {
			fmt.Fprintf(&sb, "  quickened (%d -> %d instructions):\n", len(c.Code), len(c.Quick))
			for pc, ins := range c.Quick {
				sb.WriteString(formatQuick(o, c, pc, ins))
				sb.WriteByte('\n')
			}
		}
	}
	if len(o.CapSpecs) > 0 {
		sb.WriteString("\ncapture specs:\n")
		for i, spec := range o.CapSpecs {
			fmt.Fprintf(&sb, "  [%d]", i)
			for _, cr := range spec {
				switch cr.Kind {
				case capLocal:
					fmt.Fprintf(&sb, " local:%d", cr.Idx)
				case capCapture:
					fmt.Fprintf(&sb, " capture:%d", cr.Idx)
				case capSelf:
					sb.WriteString(" self")
				case capFrameSelf:
					sb.WriteString(" frame-self")
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// formatInstr renders one wire instruction. Opcodes outside the known
// range (possible when dumping a hand-built or corrupted chunk before
// VerifyObject has rejected it) fall back to a raw operand dump rather than
// indexing any table, so the disassembler never panics on bad input.
func formatInstr(o *Object, pc int, ins Instr) string {
	out := fmt.Sprintf("  %4d  %-14s", pc, opName(ins.Op))
	switch ins.Op {
	case opConstInt:
		out += fmt.Sprintf(" %d", ins.A)
	case opConstBool:
		out += fmt.Sprintf(" %t", ins.A != 0)
	case opConstStr:
		out += strPoolRef(o, ins.A)
	case opLocalGet, opLocalSet, opCaptureGet, opGlobalGet, opGlobalSet, opImportGet:
		out += fmt.Sprintf(" %d", ins.A)
	case opClosure:
		out += fmt.Sprintf(" chunk=%d caps=%d", ins.A, ins.B)
	case opCall, opTailCall, opTuple, opTupleGet:
		out += fmt.Sprintf(" %d", ins.A)
	case opJump, opJumpIfFalse, opJumpIfTrue, opPushHandler:
		out += fmt.Sprintf(" -> %d", pc+1+int(ins.A))
	default:
		if ins.Op >= opMax {
			out += rawOperands(ins)
		}
	}
	return out
}

// formatQuick renders one quickened instruction with its weight and the
// wire pc it deoptimizes to. Unknown opcodes (a future quickened op this
// build does not know, or garbage in a hand-built chunk) get the same
// width-safe raw dump as formatInstr.
func formatQuick(o *Object, c *Chunk, pc int, ins Instr) string {
	src := ""
	if pc < len(c.quickSrc) {
		src = fmt.Sprintf(" ; wire %d", c.quickSrc[pc])
	}
	w := ins.W
	if w == 0 {
		w = 1
	}
	out := fmt.Sprintf("  %4d  w=%-2d %-14s", pc, w, opName(ins.Op))
	switch ins.Op {
	case qGetGet:
		out += fmt.Sprintf(" locals %d, %d", ins.A, ins.B)
	case qCmpJf:
		out += fmt.Sprintf(" %s -> %d", opName(byte(ins.B)), pc+1+int(ins.A))
	case qGGCmpJf:
		out += fmt.Sprintf(" locals %d, %d %s -> %d",
			ins.B&0xfff, (ins.B>>12)&0xfff, opName(byte(ins.B>>24)), pc+1+int(ins.A))
	case qIncL:
		out += fmt.Sprintf(" local %d += %d", ins.A, ins.B)
	case qGetFieldSet:
		out += fmt.Sprintf(" local %d = local %d.%d", (ins.B>>8)&0xffffff, ins.A, ins.B&0xff)
	case qStrSub:
		out += fmt.Sprintf(" argc=%d ic=%d", ins.A&0xff, ins.A>>8)
	case qStrGet, qHtblFind, qHtblMem, qHtblAdd:
		out += fmt.Sprintf(" argc=%d", ins.A)
	case qConcatN:
		out += fmt.Sprintf(" n=%d", ins.A)
	default:
		if ins.Op < opMax {
			// Unfused wire instruction carried over verbatim.
			return formatInstr(o, pc, ins) + src
		}
		out += rawOperands(ins)
	}
	return out + src
}

// strPoolRef renders a string-pool operand, tolerating out-of-range
// indices (truncated or hostile objects dumped before verification).
func strPoolRef(o *Object, idx int64) string {
	if idx < 0 || idx >= int64(len(o.StrPool)) {
		return fmt.Sprintf(" str#%d (out of range, pool has %d)", idx, len(o.StrPool))
	}
	s := o.StrPool[idx]
	if len(s) > 24 {
		s = s[:24] + "..."
	}
	return fmt.Sprintf(" %q", s)
}

func rawOperands(ins Instr) string {
	return fmt.Sprintf(" A=%d B=%d (unknown opcode)", ins.A, ins.B)
}

// InstrCount returns the total instruction count across all chunks; the
// swc tool reports it as a size/complexity measure.
func InstrCount(o *Object) int {
	n := 0
	for _, c := range o.Chunks {
		n += len(c.Code)
	}
	return n
}
