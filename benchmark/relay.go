package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// relay is a byte- and frame-counting TCP forwarder on loopback. The wepic
// workloads put one in front of every peer a remote daemon dials, so every
// byte that crosses between the two daemons — data frames, acks, digest
// adverts — is counted from outside the program. It is in the path in traced
// and untraced runs alike, so the topology never differs between them.
//
// The transport opens one connection per direction (the sender dials, writes
// frames, and never reads), so a relay counts one direction of the dialogue:
// up is dialer→target, down is whatever the target writes back on the same
// connection (nothing, today).
type relay struct {
	ln net.Listener

	ready  chan struct{} // closed by setTarget
	target string

	up, down atomic.Uint64 // payload bytes forwarded
	frames   atomic.Uint64 // length-prefixed frames seen dialer→target

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// newRelay listens on an ephemeral loopback port. Connections are accepted
// at once but forwarded only after setTarget, so a daemon may be configured
// with the relay's address before the peer behind it has bound its own.
func newRelay() (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay: %w", err)
	}
	r := &relay{ln: ln, ready: make(chan struct{}), conns: map[net.Conn]struct{}{}}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// setTarget names the address connections are forwarded to. Call it once.
func (r *relay) setTarget(addr string) {
	r.target = addr
	close(r.ready)
}

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		if !r.track(c) {
			c.Close()
			return
		}
		r.wg.Add(1)
		go r.serve(c)
	}
}

// track registers a live connection so close can tear it down.
func (r *relay) track(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[c] = struct{}{}
	return true
}

func (r *relay) untrack(c net.Conn) {
	c.Close()
	r.mu.Lock()
	delete(r.conns, c)
	r.mu.Unlock()
}

func (r *relay) serve(in net.Conn) {
	defer r.wg.Done()
	defer r.untrack(in)
	<-r.ready
	out, err := net.Dial("tcp", r.target)
	if err != nil {
		return // the dialer sees a dropped link and redials under backoff
	}
	if !r.track(out) {
		out.Close()
		return
	}
	defer r.untrack(out)

	done := make(chan struct{})
	go func() {
		defer close(done)
		pump(in, out, &r.down, nil)
		in.Close()
	}()
	pump(out, in, &r.up, &frameCounter{frames: &r.frames})
	out.Close()
	<-done
}

// pump copies src to dst, adding to bytes and feeding fc what it forwards.
func pump(dst, src net.Conn, bytes *atomic.Uint64, fc *frameCounter) {
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			bytes.Add(uint64(n))
			if fc != nil {
				fc.feed(buf[:n])
			}
		}
		if err != nil {
			return
		}
	}
}

// close stops the listener and every forwarded connection and waits for the
// relay's goroutines.
func (r *relay) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.ln.Close()
	select {
	case <-r.ready:
	default:
		close(r.ready) // release serve goroutines parked before setTarget
	}
	r.wg.Wait()
}

// frameCounter counts the transport's frames (4-byte little-endian length,
// then the body) in a byte stream without taking part in forwarding: if the
// framing ever changes the count goes wrong but the bytes still flow.
type frameCounter struct {
	frames *atomic.Uint64
	hdr    [4]byte
	nhdr   int
	body   int // body bytes of the current frame still to come
}

func (f *frameCounter) feed(p []byte) {
	for len(p) > 0 {
		if f.body > 0 {
			n := min(f.body, len(p))
			f.body -= n
			p = p[n:]
			continue
		}
		f.hdr[f.nhdr] = p[0]
		f.nhdr++
		p = p[1:]
		if f.nhdr == len(f.hdr) {
			f.nhdr = 0
			f.body = int(binary.LittleEndian.Uint32(f.hdr[:]))
			f.frames.Add(1)
		}
	}
}
