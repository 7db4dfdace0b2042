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
	// whole is bounded only by the sender's ctx).
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
	// QueueCap bounds each local node's receive queue (DefaultQueueCap
	// if ≤ 0). The accept-side reader blocks while a queue is full, so
	// backpressure propagates to senders through TCP flow control.
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

// TCP is the wire Transport: node ids map to host:port addresses, every
// out-link (from, to) keeps one long-lived connection that is redialed with
// capped exponential backoff when it breaks, frames are length-prefixed
// binary (see wire.go), and each local node's deliveries land in a bounded
// queue — the reader blocks while the queue is full, so the backpressure
// contract holds across the wire through TCP flow control.
//
// An instance serves the Local subset of the cluster: Recv streams exist
// for local nodes only (Recv of a remote node returns nil), while Send may
// be called for any configured out-link. Frames addressed to nodes that are
// not local are dropped on arrival.
//
// What the wire does NOT add: no delivery acknowledgment (a nil Send means
// the frame was written to the socket, not processed), no ordering across
// links, no authentication — the From field is trusted exactly as far as
// the deployment trusts its network. Per-link FIFO holds for frames that
// survive one connection; a reconnect may lose frames buffered in the dead
// socket. The actor layer's idempotent resends repair all of it.
type TCP struct {
	cfg   TCPConfig
	local map[int]bool
	qs    map[int]chan Delivery
	ln    net.Listener
	life  context.Context // ends when Close begins
	kill  context.CancelFunc
	done  atomic.Bool

	mu    sync.Mutex
	links map[[2]int]*tcpLink
	conns map[net.Conn]struct{}

	wg sync.WaitGroup // accept loop + per-connection readers
}

var _ Transport = (*TCP)(nil)

// tcpLink is one out-link's connection state. The sem channel (capacity 1)
// is the link lock: acquired with a select so waiters stay cancelable, and
// holding it serializes senders — which is what gives the link its FIFO.
type tcpLink struct {
	sem     chan struct{}
	conn    net.Conn
	backoff time.Duration // next dial backoff; 0 = dial immediately
	buf     []byte        // frame encode scratch
}

// NewTCP binds the listener (unless one is supplied) and starts the accept
// loop. Dialing is lazy: the first Send on a link establishes it.
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
		local: local,
		qs:    make(map[int]chan Delivery, len(local)),
		ln:    ln,
		links: make(map[[2]int]*tcpLink),
		conns: make(map[net.Conn]struct{}),
	}
	t.life, t.kill = context.WithCancel(context.Background())
	// Private copy of the address map, resolving self-referential entries:
	// an empty Addrs[i] means "this instance", which is only knowable once
	// the listener is bound.
	t.cfg.Addrs = append([]string(nil), cfg.Addrs...)
	for i, a := range t.cfg.Addrs {
		if a == "" {
			t.cfg.Addrs[i] = ln.Addr().String()
		}
	}
	for id := range local {
		t.qs[id] = make(chan Delivery, cfg.QueueCap)
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
		t.mu.Lock()
		if t.done.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
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
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
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
		if !ok || d.From < 0 || d.From >= len(t.cfg.Addrs) {
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

// link returns the (from, to) out-link, creating it on first use.
func (t *TCP) link(from, to int) *tcpLink {
	key := [2]int{from, to}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.links[key]
	if l == nil {
		l = &tcpLink{sem: make(chan struct{}, 1)}
		t.links[key] = l
	}
	return l
}

// Send implements Transport. It serializes with other Sends on the same
// out-link, establishes the link's connection if needed — redialing with
// capped exponential backoff for as long as ctx allows — then writes one
// frame. A write failure tears the connection down and is returned to the
// caller (the next Send on the link redials); Send never silently resends a
// frame, so the wire adds duplicates no faster than the layers above it.
func (t *TCP) Send(ctx context.Context, from, to int, m Msg) error {
	if from < 0 || from >= len(t.cfg.Addrs) || to < 0 || to >= len(t.cfg.Addrs) {
		return fmt.Errorf("transport: send %d -> %d outside [0,%d)", from, to, len(t.cfg.Addrs))
	}
	if t.done.Load() {
		return ErrClosed
	}
	l := t.link(from, to)
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-t.life.Done():
		return ErrClosed
	}
	defer func() { <-l.sem }()

	if l.conn == nil {
		if err := t.redial(ctx, l, to); err != nil {
			return err
		}
	}
	l.buf = appendFrame(l.buf[:0], Delivery{From: from, To: to, Msg: m})
	if err := t.write(ctx, l); err != nil {
		// The connection is gone (or deadline-poisoned); the next Send
		// redials after the link's backoff.
		l.conn.Close()
		t.forget(l.conn)
		l.conn = nil
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if t.done.Load() {
			return ErrClosed
		}
		return fmt.Errorf("transport: tcp: send %d -> %d: %w", from, to, err)
	}
	return nil
}

// forget drops a dead outbound connection from the Close set.
func (t *TCP) forget(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// redial establishes l's connection to node to, retrying failed dials with
// the link's capped exponential backoff until one succeeds, ctx ends, or
// the transport closes. The backoff state persists across Send calls, so a
// sender hammering a dead peer parks here instead of spinning.
func (t *TCP) redial(ctx context.Context, l *tcpLink, to int) error {
	for {
		if l.backoff > 0 {
			timer := time.NewTimer(l.backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-t.life.Done():
				timer.Stop()
				return ErrClosed
			}
		}
		// The dial ends with ctx or with the transport, whichever is first.
		dctx, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(t.life, cancel)
		d := net.Dialer{Timeout: DefaultDialTimeout}
		conn, err := d.DialContext(dctx, "tcp", t.cfg.Addrs[to])
		stop()
		cancel()
		if err == nil {
			t.clampSockBuf(conn)
			t.mu.Lock()
			if t.done.Load() {
				t.mu.Unlock()
				conn.Close()
				return ErrClosed
			}
			t.conns[conn] = struct{}{}
			t.mu.Unlock()
			// Nothing is ever read off an outbound connection here, but
			// the peer may still close it; a reader per out-link just to
			// notice would be a goroutine tax — the write path notices.
			l.conn = conn
			l.backoff = 0
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if t.done.Load() {
			return ErrClosed
		}
		if l.backoff == 0 {
			l.backoff = t.cfg.DialBackoff
		} else if l.backoff *= 2; l.backoff > maxDialBackoffFactor*t.cfg.DialBackoff {
			l.backoff = maxDialBackoffFactor * t.cfg.DialBackoff
		}
	}
}

// errWriteInterrupted marks a write cut short by ctx or Close; Send
// normalizes it to ctx.Err() or ErrClosed.
var errWriteInterrupted = fmt.Errorf("transport: tcp: write interrupted")

// write performs one frame write, interruptible by ctx and Close: ctx ending
// poisons the write deadline and Close closes the connection, so a write
// blocked on a full socket (receiver backpressure) unblocks promptly instead
// of waiting for kernel timeouts.
func (t *TCP) write(ctx context.Context, l *tcpLink) error {
	conn := l.conn // captured: the poisoning may outlive this Send by a beat
	stop := context.AfterFunc(ctx, func() { conn.SetWriteDeadline(time.Unix(1, 0)) })
	_, err := conn.Write(l.buf)
	if interrupted := !stop() || t.done.Load(); interrupted && err == nil {
		// Interrupted after the write completed: mirror Inproc's Close/Send
		// race contract — the interrupt wins, even though the frame may have
		// reached the peer (at-most-once allows the ambiguity; the caller
		// tears the connection down).
		err = errWriteInterrupted
	}
	return err
}

// Recv implements Transport. The stream exists for local nodes only; Recv
// of a node hosted elsewhere returns nil (which blocks forever in a select
// — remote nodes are not this instance's to consume).
func (t *TCP) Recv(node int) <-chan Delivery { return t.qs[node] }

// Close implements Transport: stop accepting, sever every connection
// (unblocking reads, writes, and dials in flight), and wait out the accept
// and reader goroutines. Idempotent; after it returns the transport owns no
// goroutines. Deliveries already queued remain readable; no new ones are
// enqueued (see the Transport contract).
func (t *TCP) Close() error {
	if !t.done.CompareAndSwap(false, true) {
		return nil
	}
	t.kill()
	t.ln.Close()
	// Every live connection — inbound and outbound link conns alike — is
	// registered in t.conns, so closing the set unblocks all reads and
	// writes in flight. Senders holding a link sem then observe the end of
	// t.life or a write error and return ErrClosed.
	t.mu.Lock()
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
