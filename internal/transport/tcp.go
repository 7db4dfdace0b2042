package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Default TCP tuning knobs applied by TCPConfig defaults.
const (
	// DefaultDialBackoff is the initial reconnect backoff after a failed
	// dial; it doubles per attempt, capped at maxDialBackoffFactor times
	// the initial value.
	DefaultDialBackoff = 5 * time.Millisecond
	// maxDialBackoffFactor caps the exponential dial backoff at this
	// multiple of the initial backoff.
	maxDialBackoffFactor = 32
	// DefaultDialTimeout bounds one dial attempt (the reconnect loop as a
	// whole is bounded only by Close).
	DefaultDialTimeout = 2 * time.Second
)

// TCPConfig parameterizes a TCP transport instance.
type TCPConfig struct {
	// Addrs maps node id -> host:port of the process hosting that node.
	// Multiple node ids may share one address (that process hosts them
	// all). Required, length = cluster size.
	Addrs []string
	// Local lists the node ids hosted by this instance — the ids whose
	// Recv streams this instance serves. Empty means all nodes are local
	// (the single-process layout tests use).
	Local []int
	// Listen overrides the listen address (default: Addrs of the first
	// local node). Use "host:0" plus the Listener field's Addr when the
	// kernel should pick the port.
	Listen string
	// Listener, when non-nil, is a pre-bound listener the transport
	// adopts instead of binding Listen itself — the way tests reserve
	// ephemeral ports race-free before the address map is assembled.
	// Ownership passes to the transport: Close closes it.
	Listener net.Listener
	// QueueCap bounds each local node's receive queue, and each peer
	// address's send queue at QueueCap per node id hosted there
	// (DefaultQueueCap if ≤ 0). The accept-side reader blocks while a
	// receive queue is full, so backpressure propagates through TCP flow
	// control to the peer's writer, and from its full send queue to Send.
	QueueCap int
	// DialBackoff is the initial reconnect backoff after a failed dial,
	// doubling per attempt up to maxDialBackoffFactor times this value
	// (0 selects DefaultDialBackoff).
	DialBackoff time.Duration
	// SockBuf, when > 0, clamps SO_SNDBUF/SO_RCVBUF on every connection.
	// Tests use tiny buffers so socket backpressure engages after a few
	// frames instead of after megabytes.
	SockBuf int
}

// TCP is the wire Transport: node ids map to host:port addresses, and
// there is one connection per peer address — every node id that shares an
// address shares one bounded send queue and one writer goroutine, which
// coalesces whatever is queued into one write, dials lazily, and redials
// with capped exponential backoff when the connection breaks. Frames are
// length-prefixed binary (see wire.go) and carry their own (from, to), so
// the accept side demultiplexes by addressee. Each local node's deliveries
// land in a bounded queue — the reader blocks while the queue is full, so
// the backpressure contract holds across the wire through TCP flow control
// and, behind it, the peer's full send queue.
//
// An instance serves the Local subset of the cluster: Recv streams exist
// for local nodes only (Recv of a remote node returns nil), while Send may
// be called for any configured out-link. Frames addressed to nodes that are
// not local are dropped on arrival.
//
// What the wire does NOT add: no delivery acknowledgment (a nil Send means
// the frame was queued for its peer's writer, not written or processed), no
// ordering across links, no authentication — the From field is trusted
// exactly as far as the deployment trusts its network. Per-link FIFO holds
// for frames that survive one connection, because one writer owns it; a
// failed write drops its batch with the connection. The actor layer's
// idempotent resends repair all of it.
type TCP struct {
	cfg   TCPConfig
	qs    map[int]chan Delivery
	peers []*tcpPeer // by node id; ids sharing an address share one peer
	ln    net.Listener
	life  context.Context // ends when Close begins
	kill  context.CancelFunc
	done  atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg sync.WaitGroup // accept loop, per-connection readers, per-peer writers
}

var _ Transport = (*TCP)(nil)

// tcpPeer is one peer address's send side: Send enqueues onto q, and the
// peer's writer goroutine alone touches conn and backoff.
type tcpPeer struct {
	addr    string
	q       chan Delivery
	conn    net.Conn
	backoff time.Duration // next dial backoff; 0 = dial immediately
}

// maxBatch caps the bytes a writer coalesces into one conn.Write.
const maxBatch = 64 << 10

// NewTCP binds the listener (unless one is supplied), starts the accept
// loop and one writer per distinct peer address. Dialing is lazy: a peer's
// first frame establishes its connection.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("transport: tcp: empty address map")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = DefaultDialBackoff
	}
	local := make(map[int]bool)
	if len(cfg.Local) == 0 {
		for i := range cfg.Addrs {
			local[i] = true
		}
	} else {
		for _, id := range cfg.Local {
			if id < 0 || id >= len(cfg.Addrs) {
				return nil, fmt.Errorf("transport: tcp: local node %d outside [0,%d)", id, len(cfg.Addrs))
			}
			local[id] = true
		}
	}
	ln := cfg.Listener
	if ln == nil {
		addr := cfg.Listen
		if addr == "" {
			for id := range cfg.Addrs {
				if local[id] {
					addr = cfg.Addrs[id]
					break
				}
			}
		}
		if addr == "" {
			return nil, fmt.Errorf("transport: tcp: no listen address (no local nodes and no Listen)")
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: tcp: listen %s: %w", addr, err)
		}
	}
	t := &TCP{
		cfg:   cfg,
		qs:    make(map[int]chan Delivery, len(local)),
		peers: make([]*tcpPeer, len(cfg.Addrs)),
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	t.life, t.kill = context.WithCancel(context.Background())
	for id := range local {
		t.qs[id] = make(chan Delivery, cfg.QueueCap)
	}
	// One peer per distinct address, its send queue QueueCap per node id
	// hosted there; an empty Addrs[i] means "this instance", which is only
	// knowable once the listener is bound.
	byAddr := make(map[string]*tcpPeer)
	hosted := make(map[*tcpPeer]int)
	for id, addr := range cfg.Addrs {
		if addr == "" {
			addr = ln.Addr().String()
		}
		p := byAddr[addr]
		if p == nil {
			p = &tcpPeer{addr: addr}
			byAddr[addr] = p
		}
		hosted[p]++
		t.peers[id] = p
	}
	for p, ids := range hosted {
		p.q = make(chan Delivery, cfg.QueueCap*ids)
		t.wg.Add(1)
		go t.writeLoop(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with a ":0" Listen).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// acceptLoop accepts inbound connections until the listener closes, one
// reader goroutine per connection.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // Close closed the listener
		}
		t.clampSockBuf(conn)
		if !t.track(conn) {
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one inbound connection and enqueues them into
// the addressee's bounded queue, blocking while it is full — that blocked
// read is what turns a slow consumer into TCP backpressure on the sender.
// Frames for nodes this instance does not host are dropped.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.drop(conn)
	br := bufio.NewReader(conn)
	var scratch []byte
	for {
		var d Delivery
		var err error
		d, scratch, err = readFrame(br, scratch)
		if err != nil {
			return // EOF, peer reset, codec violation, or Close
		}
		q, ok := t.qs[d.To]
		if !ok || d.From < 0 || d.From >= len(t.peers) {
			continue // misrouted or forged header: drop, keep the stream
		}
		select {
		case q <- d:
		case <-t.life.Done():
			return
		}
	}
}

// clampSockBuf applies the configured socket buffer bound to a connection.
func (t *TCP) clampSockBuf(conn net.Conn) {
	if t.cfg.SockBuf <= 0 {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(t.cfg.SockBuf)
		tc.SetWriteBuffer(t.cfg.SockBuf)
	}
}

// track registers conn for Close to sever. Once Close has begun it closes
// conn instead and reports false.
func (t *TCP) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done.Load() {
		conn.Close()
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

// drop closes conn and removes it from the Close set.
func (t *TCP) drop(conn net.Conn) {
	conn.Close()
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// Send implements Transport: it enqueues the frame for the addressee's
// peer writer, blocking while that queue is full (backpressure) until ctx
// is done or the transport closes. A nil return means the frame was queued;
// a write that later fails drops it (at-most-once), and Send never resends,
// so the wire adds duplicates no faster than the layers above it.
func (t *TCP) Send(ctx context.Context, from, to int, m Msg) error {
	if from < 0 || from >= len(t.peers) || to < 0 || to >= len(t.peers) {
		return fmt.Errorf("transport: send %d -> %d outside [0,%d)", from, to, len(t.peers))
	}
	if t.done.Load() {
		return ErrClosed
	}
	return enqueue(ctx, t.peers[to].q, Delivery{From: from, To: to, Msg: m}, t.life.Done(), &t.done)
}

// writeLoop is p's writer: it takes one frame, drains whatever else is
// queued at that moment (up to maxBatch bytes) into the same buffer, and
// sends the batch
// with one write — so a round's frames to one peer leave together. A
// failed write closes the connection and drops the batch; the next batch
// redials. Close unblocks a write in flight by closing the connection.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	var buf []byte
	for {
		select {
		case d := <-p.q:
			buf = appendFrame(buf[:0], d)
		case <-t.life.Done():
			return
		}
		// Only what is queued now, not what senders add while it drains:
		// that would stretch a batch to maxBatch and hold every frame in it
		// back from the wire. The writer is q's one consumer, so these
		// receives never block.
		for n := len(p.q); n > 0 && len(buf) < maxBatch; n-- {
			buf = appendFrame(buf, <-p.q)
		}
		if p.conn == nil && !t.dial(p) {
			return // Close began
		}
		if _, err := p.conn.Write(buf); err != nil {
			t.drop(p.conn)
			p.conn = nil
		}
	}
}

// dial establishes p's connection, retrying failed dials with p's capped
// exponential backoff until one succeeds (true) or Close begins (false).
// The backoff persists across calls and resets only on success, so a
// writer facing a dead peer parks here — and its full queue parks the
// senders — instead of spinning.
func (t *TCP) dial(p *tcpPeer) bool {
	for {
		if p.backoff > 0 {
			timer := time.NewTimer(p.backoff)
			select {
			case <-timer.C:
			case <-t.life.Done():
				timer.Stop()
				return false
			}
		}
		d := net.Dialer{Timeout: DefaultDialTimeout}
		conn, err := d.DialContext(t.life, "tcp", p.addr)
		if err == nil {
			t.clampSockBuf(conn)
			// Nothing is ever read off an outbound connection, but the peer
			// may still close it; the next write notices.
			if !t.track(conn) {
				return false
			}
			p.conn, p.backoff = conn, 0
			return true
		}
		if t.done.Load() {
			return false
		}
		p.backoff = min(max(2*p.backoff, t.cfg.DialBackoff), maxDialBackoffFactor*t.cfg.DialBackoff)
	}
}

// Recv implements Transport. The stream exists for local nodes only; Recv
// of a node hosted elsewhere returns nil (which blocks forever in a select
// — remote nodes are not this instance's to consume).
func (t *TCP) Recv(node int) <-chan Delivery { return t.qs[node] }

// Close implements Transport: stop accepting, sever every connection
// (unblocking reads, writes, and dials in flight), and wait out the accept,
// reader and writer goroutines. Idempotent; after it returns the transport
// owns no goroutines. Deliveries already queued remain readable; no new
// ones are enqueued (see the Transport contract).
func (t *TCP) Close() error {
	if !t.done.CompareAndSwap(false, true) {
		return nil
	}
	t.kill()
	t.ln.Close()
	// Every live connection — inbound and outbound alike — is registered
	// in t.conns, so closing the set unblocks all reads and writes in
	// flight; parked Senders observe the end of t.life and return ErrClosed.
	t.mu.Lock()
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
