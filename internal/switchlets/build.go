package switchlets

import "strings"

// swl string literals for the two protocols' constants.
const (
	ieeeAddrLit  = `"\x01\x80\xc2\x00\x00\x00"` // 802.1D All Bridges
	decAddrLit   = `"\x09\x00\x2b\x01\x00\x01"` // DEC management multicast
	ieeeEtypeLit = `"\x88\xf5"`
	decEtypeLit  = `"\x60\x02"`
)

// buildSTP instantiates the shared spanning tree source for one protocol.
func buildSTP(name, other, addr, etype, fragments string) string {
	src := stpCommon
	src = strings.Replace(src, "let my_vector port = !root ^ be32 !root_cost ^ my_id ^ be16 port",
		"let my_vector port = !root ^ be32 !root_cost ^ my_id ^ be16 port\n"+fragments, 1)
	repl := strings.NewReplacer(
		"@ADDR@", addr,
		"@ETYPE@", etype,
		"@NAME@", `"`+name+`"`,
		"@OTHER@", `"`+other+`"`,
		"@TIMER@", `"`+name+`_hello"`,
	)
	return repl.Replace(src)
}

// SpanningSrc is switchlet 3: the IEEE 802.1D spanning tree protocol
// (paper §5.3), the "new" protocol of the transition experiment.
var SpanningSrc = buildSTP("ieee", "dec", ieeeAddrLit, ieeeEtypeLit, ieeeFragments)

// DECSrc is the DEC-style spanning tree: the same algorithm sending "DEC
// spanning tree packets to the DEC management multicast address instead of
// 802.1D packets to the All Bridges multicast address" with an incompatible
// frame format (paper §5.4) — the "old" protocol.
var DECSrc = buildSTP("dec", "ieee", decAddrLit, decEtypeLit, decFragments)

// BuggySpanningSrc is SpanningSrc with an inverted root-election comparison:
// it elects the *highest* bridge identifier as root. The control switchlet's
// validation detects the resulting spanning tree mismatch and falls back to
// the DEC protocol — the paper's demonstration that "the Active Bridge can
// protect itself from some algorithmic failures in loadable modules."
var BuggySpanningSrc = strings.Replace(SpanningSrc,
	"if vroot < !root ||", "if vroot > !root ||", 1)

// Module names used when loading the standard switchlets.
const (
	ModDumb     = "Dumb"
	ModLearning = "Learning"
	ModSpanning = "Spanning"
	ModDEC      = "Decspan"
	ModControl  = "Control"
)
