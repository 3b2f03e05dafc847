package netsim

// CostModel holds the calibrated per-stage software costs of the paper's
// measurement platform (166 MHz Pentium, Linux 2.0, Caml bytecode
// interpreter). Every cost is virtual time; DefaultCostModel's comment
// lists the paper figures each constant was fitted to, and `go run
// ./cmd/abbench` (README "Running the paper tables") prints what the
// fitted model reproduces next to the paper's value.
//
// The frame path (paper Figure 5) decomposes as:
//
//	wire -> [KernelPerFrame + len*KernelPerByte]            (steps 2-3)
//	     -> switchlet execution (VM accounting or native)   (step 4)
//	     -> [KernelPerFrame + len*KernelPerByte]            (steps 5-6)
//	     -> wire                                            (step 7)
type CostModel struct {
	// KernelPerFrame is the fixed cost of one kernel boundary crossing:
	// ISR work, buffer chain handling, socket queueing and the syscall
	// (recvfrom or sendto). Charged once on receive and once on send.
	KernelPerFrame Duration
	// KernelPerByte is the copy cost between kernel and user space,
	// charged per byte per crossing.
	KernelPerByte Duration

	// HostStackPerFrame is the per-packet cost of an endpoint's full
	// protocol stack (the hosts run stock Linux TCP/IP in the paper).
	HostStackPerFrame Duration
	// HostStackPerByte is the endpoint per-byte (checksum+copy) cost.
	HostStackPerByte Duration

	// VMPerDispatch is the fixed cost of entering the interpreter for one
	// event: marshalling the packet into a Caml string, closure dispatch,
	// and amortized collector work that scales with invocation count.
	VMPerDispatch Duration
	// VMPerInstr is the cost of one switchlet VM instruction; the
	// interpreter reports executed instruction counts and the bridge
	// charges its CPU accordingly. Together with VMPerDispatch this is
	// the paper's dominant cost (≈0.47 ms/frame through the learning
	// bridge during ttcp).
	VMPerInstr Duration
	// VMPerAllocByte models garbage-collector pressure: each byte
	// allocated by the switchlet (string construction, table entries)
	// costs this much amortized collection time.
	VMPerAllocByte Duration

	// NativePerFrame is the dispatch cost of a native-code switchlet
	// (the paper's proposed native-compiler optimization), charged in
	// place of VM accounting.
	NativePerFrame Duration

	// RepeaterPerFrame is the user-space cost of the minimal C buffered
	// repeater's copy loop (over and above the kernel crossings).
	RepeaterPerFrame Duration
}

// DefaultCostModel returns the calibration every scenario, paper table
// and benchmark workload runs on.
//
// Calibration anchors (paper §7):
//   - direct-connection ttcp ≈ 76 Mb/s with 8 KB writes,
//   - C buffered repeater ≈ 2.1x the active bridge's throughput,
//   - active bridge ttcp ≈ 16 Mb/s, frame rate ≈ 1800/s at ~1 KB frames,
//   - learning-bridge switchlet ≈ 0.4-0.5 ms of VM time per frame.
func DefaultCostModel() CostModel {
	return CostModel{
		KernelPerFrame:    100 * Microsecond,
		KernelPerByte:     40 * Nanosecond,
		HostStackPerFrame: 90 * Microsecond,
		HostStackPerByte:  40 * Nanosecond,
		VMPerDispatch:     200 * Microsecond,
		VMPerInstr:        2 * Microsecond,
		VMPerAllocByte:    25 * Nanosecond,
		NativePerFrame:    15 * Microsecond,
		RepeaterPerFrame:  5 * Microsecond,
	}
}

// KernelCrossing returns the cost of moving a frame of rawLen bytes across
// the user/kernel boundary once.
func (m CostModel) KernelCrossing(rawLen int) Duration {
	return m.KernelPerFrame + Duration(rawLen)*m.KernelPerByte
}

// HostStack returns the endpoint protocol-stack cost for one packet.
func (m CostModel) HostStack(rawLen int) Duration {
	return m.HostStackPerFrame + Duration(rawLen)*m.HostStackPerByte
}

// VMCost converts interpreter accounting (instructions executed, bytes
// allocated) into CPU time for one dispatch.
func (m CostModel) VMCost(instrs, allocBytes uint64) Duration {
	return m.VMPerDispatch + Duration(instrs)*m.VMPerInstr + Duration(allocBytes)*m.VMPerAllocByte
}
