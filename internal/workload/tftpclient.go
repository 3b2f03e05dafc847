package workload

import (
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tftp"
)

// Retransmission timing for the uploader: a fixed initial RTO with
// exponential backoff. 1 s is three orders of magnitude above the
// extended LAN's block RTT, so on a clean network every timer fires after
// its datagram was acked and retransmission never perturbs a transfer;
// under loss the backoff ladder reaches the cap in three doublings and
// the DefaultMaxRetries budget then gives ~50 s of persistence — enough
// to ride out a spanning tree reconvergence.
const (
	uploadRTO    = 1 * netsim.Second
	uploadRTOMax = 8 * netsim.Second
)

// Uploader drives a TFTP write transfer from a host to an active bridge's
// network switchlet loader (paper §5.2): the standard way new switchlets
// arrive over the LAN. It owns the transfer's retransmission timer: every
// outstanding datagram (WRQ or DATA) is re-sent on timeout with
// exponential backoff until tftp.Put's retry budget declares the transfer
// dead.
type Uploader struct {
	host      *Host
	server    ipv4.Addr
	put       *tftp.Put
	localPort uint16

	// dst is the server port for the outstanding datagram: the well-known
	// port for the WRQ, then the transfer TID learned from the first
	// reply.
	dst uint16
	// rto is the current retransmission timeout (doubles per timeout).
	rto netsim.Duration
	// gen invalidates scheduled timeouts logically: each accepted reply or
	// terminal state bumps it, and a timer firing with a stale generation
	// does nothing.
	gen int

	started  netsim.Time
	finished netsim.Time
	err      error
}

// NewUploader prepares an upload of data as filename to the TFTP server.
func NewUploader(h *Host, server ipv4.Addr, filename string, data []byte) *Uploader {
	u := &Uploader{
		host: h, server: server,
		put:       tftp.NewPut(filename, data),
		localPort: 32768,
		dst:       tftp.Port,
		rto:       uploadRTO,
	}
	h.BindUDP(u.localPort, u.onReply)
	return u
}

// Start transmits the write request and arms the retransmission timer.
func (u *Uploader) Start() {
	u.started = u.host.sim.Now()
	_ = u.host.SendUDP(u.server, u.localPort, u.dst, u.put.Start())
	u.armTimer()
}

func (u *Uploader) armTimer() {
	gen := u.gen
	u.host.sim.After(u.rto, func() { u.onTimeout(gen) })
}

func (u *Uploader) onTimeout(gen int) {
	if gen != u.gen {
		return // a reply (or terminal state) superseded this timer
	}
	resend, ok := u.put.Timeout()
	if !ok {
		if err := u.put.Err(); err != nil && u.err == nil {
			u.err = err
		}
		return
	}
	_ = u.host.SendUDP(u.server, u.localPort, u.dst, resend)
	if u.rto < uploadRTOMax {
		u.rto *= 2
	}
	u.armTimer()
}

func (u *Uploader) onReply(src ipv4.Addr, srcPort uint16, payload []byte) {
	if src != u.server {
		return
	}
	next := u.put.Next(payload)
	if next != nil {
		// Progress: a fresh datagram is outstanding. Learn the transfer
		// TID, retire the old timer and arm a fresh one at the base RTO.
		u.dst = srcPort
		u.gen++
		u.rto = uploadRTO
		_ = u.host.SendUDP(u.server, u.localPort, u.dst, next)
		u.armTimer()
		return
	}
	if u.put.Done() || u.put.Err() != nil {
		u.gen++ // terminal: disarm any pending timer
	}
	// Otherwise the reply was a stale/duplicate ack: the outstanding
	// datagram is still outstanding and the running timer must stay armed.
	if u.put.Done() && u.finished == 0 {
		u.finished = u.host.sim.Now()
	}
	if err := u.put.Err(); err != nil {
		u.err = err
	}
}

// Done reports successful completion.
func (u *Uploader) Done() bool { return u.put.Done() }

// Err returns the transfer error, if any (e.g. the bridge rejected the
// switchlet's digests, or the retry budget was exhausted — see
// tftp.ErrTimeout).
func (u *Uploader) Err() error { return u.err }

// Failed reports terminal failure (Err is non-nil).
func (u *Uploader) Failed() bool { return u.err != nil }

// Retransmits reports how many datagrams this transfer re-sent.
func (u *Uploader) Retransmits() uint64 { return u.put.Retransmits }

// Elapsed is the transfer duration.
func (u *Uploader) Elapsed() netsim.Duration {
	if u.finished == 0 {
		return 0
	}
	return u.finished.Sub(u.started)
}
