package script

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// hostileLines are commands whose arguments once panicked the host,
// asked it for gigabytes or were silently accepted; each must be refused
// with an error that names the argument.
var hostileLines = []struct{ line, frag string }{
	{"ping h1 h2 -5 2", "size"},         // makeslice: len out of range
	{"ping h1 h2 2000000000 1", "size"}, // a 2 GB echo payload
	{"ping h1 h2 65508 1", "size"},      // one byte past an IPv4 datagram
	{"ping h1 h2 64 -3", "count"},       // printed "0/-3 replies"
	{"ping h1 h2 64 0", "count"},
	{"ping h1 h2 64 99999999999", "count"},
	{"ttcp h1 h2 -8 100", "write"},
	{"ttcp h1 h2 0 100", "write"},
	{"ttcp h1 h2 1024 -1", "total"},
	{"run -5s", "negative"},
	{"run 1s\nrun 2562047h47m16s", "2562047h47m16s"}, // Now + d wrapped to a negative deadline
}

// nearEndLines run a command for a fixed window after a run that left
// less than that window before the end of virtual time; each command
// once ran to a wrapped deadline and reported a silent non-result
// ("0/3 replies", "done=false"). Each must be refused with an error
// that names the command, before the clock moves.
var nearEndLines = []struct{ line, frag string }{
	{"run 2562047h47m10s\nping h1 h2 64 3", "ping: 8s"},
	{"run 2562047h47m10s\nttcp h1 h2 1024 4096", "ttcp: 10m0s"},
	{"netloader br0 10.0.0.100\nrun 2562047h47m10s\nupload h1 br0 learning", "upload: 30s"},
	{"run 2562047h47m16.8s\ninject-ieee lan1", "inject-ieee: 100ms"},
}

const twoHostWorld = `
segment lan1
segment lan2
bridge br0 lan1 lan2
host h1 lan1 10.0.0.1
host h2 lan2 10.0.0.2
load br0 learning
`

// TestHostileScriptArgumentsError runs every hostile line against a
// working two-host world: it must come back as an error (not a panic,
// not a silent success), and the world must still carry traffic
// afterwards.
func TestHostileScriptArgumentsError(t *testing.T) {
	for _, c := range hostileLines {
		var out strings.Builder
		w := NewWorld(&out)
		if err := w.Run(twoHostWorld); err != nil {
			t.Fatalf("world set-up: %v", err)
		}
		err := w.Run(c.line)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: err = %v, want an error naming %q", c.line, err, c.frag)
		}
		if err := w.Run("ping h1 h2 64 2"); err != nil || !strings.Contains(out.String(), "2/2 replies") {
			t.Errorf("%q left the world unusable: err=%v output:\n%s", c.line, err, out.String())
		}
	}

	// A world at the end of virtual time carries no more traffic, so
	// these lines are checked for the error and an unmoved clock only.
	for _, c := range nearEndLines {
		var out strings.Builder
		w := NewWorld(&out)
		if err := w.Run(twoHostWorld); err != nil {
			t.Fatalf("world set-up: %v", err)
		}
		err := w.Run(c.line)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: err = %v, want an error naming %q", c.line, err, c.frag)
		}
		if lines := strings.Split(strings.TrimSpace(out.String()), "\n"); !strings.HasPrefix(lines[len(lines)-1], "t = ") {
			t.Errorf("%q: the refused command printed output:\n%s", c.line, out.String())
		}
	}

	// The node budget: bridges and hosts draw their addresses from one
	// byte, so the 255th must be refused rather than wrap onto an address
	// already in use.
	var sb strings.Builder
	sb.WriteString("segment lan\n")
	for i := 1; i <= maxNodes; i++ {
		fmt.Fprintf(&sb, "host n%d lan 10.1.%d.%d\n", i, i/250, 1+i%250)
	}
	var out strings.Builder
	w := NewWorld(&out)
	if err := w.Run(sb.String()); err != nil {
		t.Fatalf("%d hosts must fit: %v", maxNodes, err)
	}
	for _, line := range []string{"host extra lan 10.2.0.1", "bridge extra lan"} {
		if err := w.Run(line); err == nil || !strings.Contains(err.Error(), "node budget") {
			t.Errorf("%q past the node budget: err = %v", line, err)
		}
	}
	if err := w.Run("ping n1 n254 64 1"); err != nil || !strings.Contains(out.String(), "1/1 replies") {
		t.Errorf("full world unusable: err=%v output:\n%s", err, out.String())
	}
}

// fuzzSeeds are whole scripts exercising every command: cmd/activebridge's
// built-in demo and the scripts the tests above drive.
var fuzzSeeds = []string{
	// cmd/activebridge's demoScript.
	`
segment lan1
segment lan2
bridge br0 lan1 lan2
host h1 lan1 10.0.0.1
host h2 lan2 10.0.0.2
logs
load br0 learning
load br0 spanning
run 35s
switchlets br0
ping h1 h2 64 10
ttcp h1 h2 8192 4194304
stats
`,
	twoHostWorld + "ping h1 h2 64 2\nfail lan2\nping h1 h2 64 2\nheal lan2\nfail br0\nfaults\nheal br0\nstats br0\n",
	"segment lan1\nsegment lan2\nbridge br0 lan1 lan2\nnetloader br0 10.0.0.100\nhost h1 lan1 10.0.0.1\nupload h1 br0 learning\n",
	"segment s0\nsegment s1\nbridge b1 s0 s1\nload b1 learning\nload b1 dec\nload b1 spanning\nload b1 control\nrun 40s\nexpect b1 dec.running yes\ninject-ieee s0\nrun 2s\nquery b1 control.phase\n",
	"segment lan1\nsegment lan2\nbridge br0 lan1 lan2\nload br0 dec\nrun 35s\nupgrade br0 Decspan spanning\nrun 5s\nfail lan2\nheal lan2\nrun 70s\n",
	twoHostWorld + "trace on\nping h1 h2 64 1\ntrace dump\ntrace off\n",
	"verify learning\nverify nosuch\n# comment\n\nfrobnicate\n",
	"run 1000000h\nrun 1000000h\nrun 1000000h\n",
}

// fuzzMaxEvents bounds the simulation work of any one command, so a
// `run 1000000h` against a chattering spanning tree cannot stall the
// fuzzer.
const fuzzMaxEvents = 20000

// maxSingleAlloc is the largest single allocation a script may cause.
const maxSingleAlloc = 1 << 20

// FuzzScriptExec feeds arbitrary text to World.Run: whatever the script
// says, Run must return (an error or nil) without panicking and without
// a single allocation above 1 MB. With MemProfileRate 1 the runtime
// records every allocation in a profile bucket keyed by call stack and
// size, so an oversized one shows up as a bucket of its own.
func FuzzScriptExec(f *testing.F) {
	runtime.MemProfileRate = 1
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, c := range hostileLines {
		f.Add(twoHostWorld + c.line + "\n")
	}
	big := bigAllocs()
	f.Fuzz(func(t *testing.T, src string) {
		w := NewWorld(io.Discard)
		w.Sim.MaxEvents = fuzzMaxEvents
		_ = w.Run(src)
		if was, now := big, bigAllocs(); now != was {
			big = now
			t.Fatalf("script made %d allocation(s) above %d bytes:\n%s", now-was, maxSingleAlloc, src)
		}
	})
}

// bigAllocs counts the allocations above maxSingleAlloc made so far under
// World.Run. The profile is published by completed garbage-collection
// cycles, two behind at worst.
func bigAllocs() (n int64) {
	runtime.GC()
	runtime.GC()
	var records []runtime.MemProfileRecord
	for {
		got, ok := runtime.MemProfile(records, true)
		if ok {
			records = records[:got]
			break
		}
		records = make([]runtime.MemProfileRecord, got+got/4)
	}
	for i := range records {
		r := &records[i]
		if r.AllocObjects == 0 || r.AllocBytes/r.AllocObjects <= maxSingleAlloc {
			continue
		}
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var fr runtime.Frame
			if fr, more = frames.Next(); strings.HasSuffix(fr.Function, "script.(*World).Run") {
				n += r.AllocObjects
				break
			}
		}
	}
	return n
}
