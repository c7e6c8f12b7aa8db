package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/protocol"
)

// TCPEndpoint is a peer's attachment to a TCP network of peers. Every peer
// listens on its own address; outgoing connections are dialed lazily per
// destination and kept open (one FIFO link per peer pair, like the paper's
// deployment). Each envelope travels as one frame: a length prefix and the
// protocol package's binary encoding.
type TCPEndpoint struct {
	name string
	ln   net.Listener

	inbox // envelopes read off inbound links (its own lock, not mu)

	mu        sync.Mutex
	directory map[string]string   // peer name -> dial address
	conns     map[string]*tcpConn // open outgoing links
	accepted  map[net.Conn]bool   // open inbound links (closed on shutdown)
	seq       uint64
	closed    bool
	done      chan struct{} // closed by Close; releases the ctx watcher
	wg        sync.WaitGroup

	// DialTimeout bounds outgoing connection establishment when the Send
	// context carries no earlier deadline.
	DialTimeout time.Duration
}

var _ Endpoint = (*TCPEndpoint)(nil)

// writeTimeout bounds one frame write when the Send context has no
// deadline. A variable only so tests can shorten it.
var writeTimeout = 10 * time.Second

type tcpConn struct {
	c net.Conn

	mu  sync.Mutex // serializes writers on this link
	buf []byte     // the frame being written, reused across sends
}

// ListenTCP starts a TCP endpoint for peer name on addr (e.g. ":7001" or
// "127.0.0.1:0"). directory maps remote peer names to their dial addresses;
// it may be extended later with AddPeer as new peers are discovered (the
// paper: "peers may discover new peers").
//
// ctx governs the endpoint's lifetime: cancelling it closes the listener
// and all links, exactly as Close does. Pass context.Background() for an
// endpoint managed only by Close.
func ListenTCP(ctx context.Context, name, addr string, directory map[string]string) (*TCPEndpoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{
		inbox:       newInbox(),
		name:        name,
		ln:          ln,
		directory:   make(map[string]string, len(directory)),
		conns:       make(map[string]*tcpConn),
		accepted:    make(map[net.Conn]bool),
		done:        make(chan struct{}),
		DialTimeout: 5 * time.Second,
	}
	for k, v := range directory {
		ep.directory[k] = v
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				ep.Close()
			case <-ep.done:
			}
		}()
	}
	return ep, nil
}

// Name returns the endpoint's peer name.
func (e *TCPEndpoint) Name() string { return e.name }

// Addr returns the bound listen address (useful with ":0").
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// AddPeer registers (or updates) the dial address for a remote peer.
func (e *TCPEndpoint) AddPeer(name, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.directory[name] != addr {
		e.directory[name] = addr
		if old, ok := e.conns[name]; ok {
			old.c.Close()
			delete(e.conns, name)
		}
	}
}

// CanRoute reports whether the directory has a dial address for the peer.
func (e *TCPEndpoint) CanRoute(to string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.directory[to]
	return ok
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accepted[c] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.accepted, c)
		e.mu.Unlock()
	}()
	r := bufio.NewReader(c)
	var body []byte
	for {
		env, b, err := readFrame(r, body)
		if err != nil || !e.push(env) {
			return // EOF, peer failure or Close: the link is dropped, sender redials
		}
		if cap(b) <= keepFrame {
			body = b // decoded envelopes never alias the frame
		}
	}
}

// frame layout: 4-byte little-endian length, then the envelope in the
// protocol package's encoding.
const (
	maxFrame   = 256 << 20 // 256 MiB: far beyond any sane batch, guards corruption
	frameChunk = 64 << 10  // first allocation for a frame body
	keepFrame  = 16 << 10  // a link keeps a frame buffer up to this size for the next frame
)

// readFrame reads and decodes one frame, reading the body into buf's
// storage when it fits and returning the buffer it used.
func readFrame(r io.Reader, buf []byte) (protocol.Envelope, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return protocol.Envelope{}, buf, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > maxFrame {
		return protocol.Envelope{}, buf, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	// Memory follows the bytes that arrive, not the length the peer claims:
	// read at most one chunk, or as much as has arrived, at a time, so a
	// header announcing maxFrame followed by three bytes costs a chunk, not
	// 256 MiB.
	body := buf[:0]
	for len(body) < n {
		more := min(n-len(body), max(len(body), frameChunk))
		body = append(body, make([]byte, more)...)
		if _, err := io.ReadFull(r, body[len(body)-more:]); err != nil {
			return protocol.Envelope{}, body, err
		}
	}
	env, err := protocol.DecodeEnvelope(body)
	return env, body, err
}

// appendFrame appends env's frame to dst.
func appendFrame(dst []byte, env protocol.Envelope) ([]byte, error) {
	start := len(dst) + 4
	dst, err := protocol.AppendEnvelope(append(dst, 0, 0, 0, 0), env)
	if err != nil {
		return nil, err
	}
	n := len(dst) - start
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(dst[start-4:], uint32(n))
	return dst, nil
}

func (e *TCPEndpoint) link(ctx context.Context, to string) (*tcpConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if conn, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return conn, nil
	}
	addr, ok := e.directory[to]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	// Dial outside the endpoint lock: a slow or black-holed destination must
	// not stall sends to other peers (or Drain/Pending) for up to
	// DialTimeout.
	d := net.Dialer{Timeout: e.DialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s at %s: %w", to, addr, err)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if cur, ok := e.conns[to]; ok {
		// Lost a dial race; use the established link.
		e.mu.Unlock()
		c.Close()
		return cur, nil
	}
	conn := &tcpConn{c: c}
	e.conns[to] = conn
	e.mu.Unlock()
	return conn, nil
}

// write sends env as one frame. Caller holds c.mu.
func (c *tcpConn) write(env protocol.Envelope) error {
	frame, err := appendFrame(c.buf[:0], env)
	if err != nil {
		return err
	}
	if cap(frame) <= keepFrame {
		c.buf = frame
	}
	_, err = c.c.Write(frame)
	return err
}

func (e *TCPEndpoint) dropLink(to string, conn *tcpConn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.conns[to]; ok && cur == conn {
		cur.c.Close()
		delete(e.conns, to)
	}
}

// Send transmits msg to peer to, dialing or redialing the link as needed.
// One transient link failure is retried with a fresh connection. The
// context bounds both the dial and the write: a deadline becomes the
// connection's write deadline, and cancellation aborts before each attempt.
// Without a deadline in ctx the write gets its own, writeTimeout from now,
// and the dial is bounded by DialTimeout: a destination that stops reading
// fails the send instead of blocking it forever.
func (e *TCPEndpoint) Send(ctx context.Context, to string, msg protocol.Payload) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.seq++
	env := protocol.Envelope{From: e.name, To: to, Seq: e.seq, Msg: msg}
	e.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := e.link(ctx, to)
		if err != nil {
			return err
		}
		// Serialize writers on the same link only: concurrent sends to
		// different destinations proceed independently.
		conn.mu.Lock()
		deadline, ok := ctx.Deadline()
		if !ok {
			deadline = time.Now().Add(writeTimeout)
		}
		conn.c.SetWriteDeadline(deadline)
		err = conn.write(env)
		conn.mu.Unlock()
		if err == nil {
			return nil
		}
		lastErr = err
		e.dropLink(to, conn)
	}
	return fmt.Errorf("transport: sending to %s: %w", to, lastErr)
}

// Close shuts down the listener and all links.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	for name, conn := range e.conns {
		conn.c.Close()
		delete(e.conns, name)
	}
	for c := range e.accepted {
		c.Close()
	}
	e.mu.Unlock()
	e.shut()
	err := e.ln.Close()
	e.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
