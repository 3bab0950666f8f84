// Package gossip implements the baseline block dissemination path: the
// whole marshaled block sent as one length-prefixed message over a TCP
// stream, standing in for Fabric's Gossip protocol (marshaled protobuf over
// gRPC/HTTP2/TCP, paper Figure 2b).
//
// Unlike the BMac protocol, the receiver must buffer and reassemble the
// entire block before any processing can start, and blocks carry their full
// identity certificates — the two properties the paper's protocol removes.
package gossip

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"bmac/internal/block"
)

// MaxBlockSize bounds a single gossip message (Fabric blocks can reach
// 100 MB; we allow 128 MB).
const MaxBlockSize = 128 << 20

// ErrTooLarge reports a block exceeding MaxBlockSize.
var ErrTooLarge = errors.New("gossip: block exceeds maximum size")

// WriteBlock frames and writes a marshaled block to w.
func WriteBlock(w io.Writer, b *block.Block) (int, error) {
	data := block.Marshal(b)
	return WriteRaw(w, data)
}

// WriteRaw frames and writes pre-marshaled block bytes.
func WriteRaw(w io.Writer, data []byte) (int, error) {
	if len(data) > MaxBlockSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return 0, fmt.Errorf("gossip write length: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return 0, fmt.Errorf("gossip write block: %w", err)
	}
	return 4 + len(data), nil
}

// ReadBlock reads one framed block from r. The entire message must be
// received and buffered before Unmarshal can begin — the TCP reassembly
// cost inherent to the Gossip path.
func ReadBlock(r io.Reader) (*block.Block, int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, 0, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxBlockSize {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, 0, fmt.Errorf("gossip read block: %w", err)
	}
	b, err := block.Unmarshal(data)
	if err != nil {
		return nil, 0, err
	}
	return b, 4 + int(n), nil
}

// Listener accepts gossip connections and delivers received blocks on a
// channel; this is the software peer's block intake.
type Listener struct {
	ln     net.Listener
	blocks chan *block.Block

	mu         sync.Mutex
	received   int64                 // guarded by mu
	decodeErrs int64                 // guarded by mu
	conns      map[net.Conn]struct{} // guarded by mu; live accepted connections

	wg        sync.WaitGroup
	stop      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Listen binds addr ("127.0.0.1:0" for ephemeral) and starts accepting.
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gossip listen %q: %w", addr, err)
	}
	l := &Listener{
		ln:     ln,
		blocks: make(chan *block.Block, 16),
		conns:  make(map[net.Conn]struct{}),
		stop:   make(chan struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Blocks returns the received-block channel; closed on Close.
func (l *Listener) Blocks() <-chan *block.Block { return l.blocks }

// BytesReceived reports cumulative bytes received.
func (l *Listener) BytesReceived() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.received
}

// DecodeErrors reports connections torn down by a corrupt, truncated or
// oversized stream (clean EOFs and listener shutdown are not counted).
func (l *Listener) DecodeErrors() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decodeErrs
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.wg.Add(1)
		go l.serve(conn)
	}
}

// addConn registers a live connection so Close can tear it down; it
// reports false when the listener is already stopping.
func (l *Listener) addConn(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopping() {
		return false
	}
	l.conns[c] = struct{}{}
	return true
}

func (l *Listener) removeConn(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

func (l *Listener) serve(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	if !l.addConn(conn) {
		return
	}
	defer l.removeConn(conn)
	r := bufio.NewReaderSize(conn, 1<<20)
	for {
		b, n, err := ReadBlock(r)
		if err != nil {
			// A clean EOF is a peer hanging up between frames; anything
			// else mid-stream is a decode failure worth surfacing —
			// unless this listener is shutting down and tearing
			// connections out from under its readers.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !l.stopping() {
				l.mu.Lock()
				l.decodeErrs++
				l.mu.Unlock()
			}
			return
		}
		l.mu.Lock()
		l.received += int64(n)
		l.mu.Unlock()
		select {
		case l.blocks <- b:
		case <-l.stop:
			return
		}
	}
}

func (l *Listener) stopping() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// Close stops accepting, closes connections and the block channel. Live
// connections are torn down too: a reader blocked on an idle-but-open
// socket must not park Close forever (the churn kill path closes a
// listener while its delivery connection sits idle). Safe to call more
// than once (error-path cleanup may close a peer's listener twice);
// later calls return the first call's result.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.stop)
		l.closeErr = l.ln.Close()
		l.mu.Lock()
		for c := range l.conns {
			c.Close()
		}
		l.mu.Unlock()
		l.wg.Wait()
		close(l.blocks)
	})
	return l.closeErr
}
