// Package transport provides a real UDP transport for PANDAS nodes,
// playing the role the libp2p/devp2p stack plays for the paper's
// prototype: every node binds a UDP socket, protocol messages are
// serialized with the wire codec, and peers are addressed by index into a
// shared peer table (the crawled "view").
//
// The transport satisfies core.Transport. Each endpoint owns a
// single-threaded event loop, so the (deliberately lock-free) core.Node
// state machine runs exactly as it does on the simulator's event loop.
//
// The peer table is dynamic: it can start sparse (addresses unknown) and
// be filled in or rebound while the endpoint is live — the substrate the
// swarm runtime's discovery crawl builds on. Lookups go through an
// immutable snapshot swapped atomically, so the receive loop never sees
// a half-rebuilt table.
package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pandas/internal/wire"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: closed")

// peerTable is an immutable peer-table snapshot: addrs[i] is peer i's
// address (nil = unknown), index inverts it. Updates build a fresh table
// and swap it atomically, so the index can never hold an entry for an
// address that was shrunk away or rebound to another peer — the
// stale-entry hazard of mutating the map in place.
type peerTable struct {
	addrs []*net.UDPAddr
	index map[string]int
}

func (t *peerTable) lookup(addr string) (int, bool) {
	if t == nil {
		return 0, false
	}
	i, ok := t.index[addr]
	return i, ok
}

// UDP is one node's transport endpoint.
type UDP struct {
	self      int
	cellBytes int
	conn      *net.UDPConn
	table     atomic.Pointer[peerTable]
	start     time.Time

	events  chan func()
	done    chan struct{}
	wg      sync.WaitGroup
	handler func(from, size int, payload any)

	// unknown receives decoded datagrams from senders absent from the
	// peer table (discovery traffic from late joiners); nil drops them.
	unknown atomic.Pointer[func(raddr *net.UDPAddr, size int, payload any)]

	// linkPolicy is a test hook interposed on outgoing datagrams to
	// inject loss and reordering; nil sends directly.
	linkPolicy atomic.Pointer[func(to int, data []byte) (drop bool, delay time.Duration)]

	// Drop counters (see Stats).
	sendErrors, encodeErrors, decodeErrors, unknownSenders atomic.Uint64

	mu      sync.Mutex // serializes Close and peer-table writers
	closed  bool
	started bool
}

// NewUDP binds a UDP endpoint. bind is this node's listen address
// ("127.0.0.1:0" picks a port); peers will be filled in later with
// SetPeers/AddPeer once participants' addresses are known. cellBytes is
// the cell payload size for the wire codec (settable until Start via
// SetCellBytes when it is not yet known at bind time).
func NewUDP(self int, bind string, cellBytes int) (*UDP, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bind, err)
	}
	return &UDP{
		self:      self,
		cellBytes: cellBytes,
		conn:      conn,
		start:     time.Now(),
		events:    make(chan func(), 4096),
		done:      make(chan struct{}),
	}, nil
}

// Addr returns the bound address (host:port).
func (u *UDP) Addr() string { return u.conn.LocalAddr().String() }

// SetCellBytes fixes the wire codec's cell payload size. It must be
// called before Start; the swarm worker uses it because the geometry
// arrives over the control channel after the socket is bound.
func (u *UDP) SetCellBytes(n int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.started {
		panic("transport: SetCellBytes after Start")
	}
	u.cellBytes = n
}

// SetPeers installs the peer table: addrs[i] is node i's address, where
// an empty string marks a peer whose address is not yet known (sends to
// it are dropped until AddPeer fills it in). Safe to call while the
// endpoint is live: the table is rebuilt from scratch and swapped
// atomically, so shrinking the table or rebinding an index to a new
// address never leaves a stale address mapped to the wrong peer.
func (u *UDP) SetPeers(addrs []string) error {
	t := &peerTable{
		addrs: make([]*net.UDPAddr, len(addrs)),
		index: make(map[string]int, len(addrs)),
	}
	for i, a := range addrs {
		if a == "" {
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return fmt.Errorf("transport: resolve peer %d %q: %w", i, a, err)
		}
		t.addrs[i] = ua
		t.index[ua.String()] = i
	}
	u.mu.Lock()
	u.table.Store(t)
	u.mu.Unlock()
	return nil
}

// AddPeer binds index i to addr, growing the table if needed. If i was
// previously bound to a different address, the old mapping is removed
// (a restarted peer rebinding its index to a fresh socket); if addr was
// previously bound to a different index, that index loses the address.
// Safe to call concurrently with the receive loop.
func (u *UDP) AddPeer(i int, addr string) error {
	if i < 0 {
		return fmt.Errorf("transport: add peer: negative index %d", i)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %d %q: %w", i, addr, err)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	old := u.table.Load()
	n := i + 1
	if old != nil && len(old.addrs) > n {
		n = len(old.addrs)
	}
	t := &peerTable{addrs: make([]*net.UDPAddr, n), index: make(map[string]int, n)}
	if old != nil {
		copy(t.addrs, old.addrs)
		for a, j := range old.index {
			t.index[a] = j
		}
	}
	key := ua.String()
	if prev := t.addrs[i]; prev != nil && t.index[prev.String()] == i {
		delete(t.index, prev.String())
	}
	if j, ok := t.index[key]; ok && j != i && j < len(t.addrs) {
		// The address moved between indexes; the displaced peer keeps no
		// claim on it.
		t.addrs[j] = nil
	}
	t.addrs[i] = ua
	t.index[key] = i
	u.table.Store(t)
	return nil
}

// Peers returns a snapshot of the peer table as strings (empty = entry
// unknown). The result is a private copy.
func (u *UDP) Peers() []string {
	t := u.table.Load()
	if t == nil {
		return nil
	}
	out := make([]string, len(t.addrs))
	for i, a := range t.addrs {
		if a != nil {
			out[i] = a.String()
		}
	}
	return out
}

// Known returns how many peer-table entries have addresses.
func (u *UDP) Known() int {
	t := u.table.Load()
	if t == nil {
		return 0
	}
	n := 0
	for _, a := range t.addrs {
		if a != nil {
			n++
		}
	}
	return n
}

// SetUnknownSender installs a handler for decoded datagrams whose sender
// is not in the peer table; it runs on the event loop like the main
// handler. The swarm discovery plane uses it to serve FindPeers from
// late joiners before they are registered.
func (u *UDP) SetUnknownSender(h func(raddr *net.UDPAddr, size int, payload any)) {
	if h == nil {
		u.unknown.Store(nil)
		return
	}
	u.unknown.Store(&h)
}

// SetLinkPolicy interposes a test hook on every outgoing datagram: drop
// suppresses it, a positive delay defers the socket write (out-of-order
// delivery). A nil policy restores direct sends. data is a pooled encode
// buffer that is reused as soon as the send returns: the policy may read
// it only during the call and must not retain it (a delayed send writes
// a private copy).
func (u *UDP) SetLinkPolicy(p func(to int, data []byte) (drop bool, delay time.Duration)) {
	if p == nil {
		u.linkPolicy.Store(nil)
		return
	}
	u.linkPolicy.Store(&p)
}

// Start launches the receive and event loops; handler receives decoded
// protocol messages on the event loop.
func (u *UDP) Start(handler func(from, size int, payload any)) {
	u.mu.Lock()
	u.handler = handler
	u.started = true
	u.mu.Unlock()
	u.wg.Add(2)
	go u.eventLoop()
	go u.receiveLoop()
}

// Run schedules fn on the endpoint's event loop (e.g. to start a slot on
// the same thread as message handling).
func (u *UDP) Run(fn func()) {
	select {
	case u.events <- fn:
	case <-u.done:
	}
}

func (u *UDP) eventLoop() {
	defer u.wg.Done()
	for {
		select {
		case fn := <-u.events:
			fn()
		case <-u.done:
			return
		}
	}
}

func (u *UDP) receiveLoop() {
	defer u.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, raddr, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-u.done:
				return
			default:
			}
			continue
		}
		from, known := u.table.Load().lookup(raddr.String())
		var unknownH func(*net.UDPAddr, int, any)
		if !known {
			hp := u.unknown.Load()
			if hp == nil {
				u.unknownSenders.Add(1) // no discovery plane to serve it
				continue
			}
			unknownH = *hp
		}
		msg, err := wire.Decode(buf[:n], u.cellBytes)
		if err != nil {
			u.decodeErrors.Add(1)
			continue
		}
		size := n + wire.OverheadIPUDP
		u.Run(func() {
			if !known {
				unknownH(raddr, size, msg)
				return
			}
			if u.handler != nil {
				u.handler(from, size, msg)
			}
		})
	}
}

// sendBufs recycles encode buffers sized for the largest datagram, so a
// steady stream of sends encodes without allocating.
var sendBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// Send implements core.Transport: encode and transmit one datagram.
// Nothing is returned to the caller, matching UDP's fire-and-forget
// semantics; every datagram that cannot be sent is counted in Stats.
func (u *UDP) Send(to int, size int, payload any) {
	t := u.table.Load()
	if t == nil || to < 0 || to >= len(t.addrs) || t.addrs[to] == nil {
		u.sendErrors.Add(1)
		return
	}
	u.encodeAndWrite(payload, t.addrs[to], to)
}

// SendToAddr transmits a message directly to a UDP address that need not
// be in the peer table (discovery replies to not-yet-registered peers).
// Link policies do not apply.
func (u *UDP) SendToAddr(addr *net.UDPAddr, payload any) {
	u.encodeAndWrite(payload, addr, -1)
}

// encodeAndWrite encodes payload into a pooled buffer and writes it to
// addr, through the link policy when to >= 0.
func (u *UDP) encodeAndWrite(payload any, addr *net.UDPAddr, to int) {
	msg, ok := payload.(wire.Message)
	if !ok {
		u.encodeErrors.Add(1)
		return
	}
	bp := sendBufs.Get().(*[]byte)
	defer sendBufs.Put(bp)
	data, err := wire.AppendEncode((*bp)[:0], msg, u.cellBytes)
	if err != nil {
		u.encodeErrors.Add(1)
		return
	}
	if pp := u.linkPolicy.Load(); pp != nil && to >= 0 {
		drop, delay := (*pp)(to, data)
		if drop {
			return
		}
		if delay > 0 {
			data = bytes.Clone(data) // the pooled buffer is reused on return
			time.AfterFunc(delay, func() { u.write(data, addr) })
			return
		}
	}
	u.write(data, addr)
}

func (u *UDP) write(data []byte, addr *net.UDPAddr) {
	if _, err := u.conn.WriteToUDP(data, addr); err != nil {
		u.sendErrors.Add(1)
	}
}

// Stats counts the datagrams an endpoint dropped. Every field only
// grows.
type Stats struct {
	SendErrors     uint64 // sends to a peer with no address, or failed socket writes
	EncodeErrors   uint64 // payloads that are not wire messages or do not fit a datagram
	DecodeErrors   uint64 // received datagrams the wire codec rejected
	UnknownSenders uint64 // datagrams from senders outside the peer table with no SetUnknownSender handler
}

// AddTo adds the counters to a metrics snapshot's counter map under
// their Prometheus names (transport_*_total).
func (s Stats) AddTo(counters map[string]int64) {
	counters["transport_send_errors_total"] = int64(s.SendErrors)
	counters["transport_encode_errors_total"] = int64(s.EncodeErrors)
	counters["transport_decode_errors_total"] = int64(s.DecodeErrors)
	counters["transport_unknown_senders_total"] = int64(s.UnknownSenders)
}

// Stats returns a snapshot of the endpoint's drop counters. Safe for
// concurrent use.
func (u *UDP) Stats() Stats {
	return Stats{
		SendErrors:     u.sendErrors.Load(),
		EncodeErrors:   u.encodeErrors.Load(),
		DecodeErrors:   u.decodeErrors.Load(),
		UnknownSenders: u.unknownSenders.Load(),
	}
}

// SendReliable implements core.Transport. Real UDP offers no reliability
// distinction; it is identical to Send.
func (u *UDP) SendReliable(to int, size int, payload any) { u.Send(to, size, payload) }

// After implements core.Transport using wall-clock timers delivered onto
// the event loop.
func (u *UDP) After(d time.Duration, fn func()) {
	timer := time.AfterFunc(d, func() { u.Run(fn) })
	_ = timer
}

// Now implements core.Transport: time since the endpoint started.
func (u *UDP) Now() time.Duration { return time.Since(u.start) }

// Close shuts the endpoint down and waits for its loops.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return ErrClosed
	}
	u.closed = true
	started := u.started
	u.mu.Unlock()
	close(u.done)
	err := u.conn.Close()
	if started {
		u.wg.Wait()
	}
	return err
}
