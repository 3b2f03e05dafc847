package vm

// QuickOpNames exposes the superinstruction name table to the external
// test package; QuickOpName maps an opcode found in a Chunk.Quick stream to
// its entry ("" for a wire opcode carried over unfused).
var QuickOpNames = qNames[:]

func QuickOpName(op byte) string {
	if op < opMax {
		return ""
	}
	return opName(op)
}
