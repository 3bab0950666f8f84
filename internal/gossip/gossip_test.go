package gossip

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/identity"
)

func makeBlock(t testing.TB, num uint64, txs int) *block.Block {
	t.Helper()
	n := identity.NewNetwork()
	if _, err := n.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	orderer, err := n.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]block.Envelope, 0, txs)
	for i := 0; i < txs; i++ {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator: client, Chaincode: "cc", Channel: "ch",
		})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, *env)
	}
	b, err := block.NewBlock(num, nil, envs, orderer)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := makeBlock(t, 3, 2)
	var buf bytes.Buffer
	wn, err := WriteBlock(&buf, b)
	if err != nil {
		t.Fatal(err)
	}
	got, rn, err := ReadBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if wn != rn {
		t.Errorf("wrote %d, read %d", wn, rn)
	}
	if got.Header.Number != 3 || len(got.Envelopes) != 2 {
		t.Errorf("block = %d/%d envs", got.Header.Number, len(got.Envelopes))
	}
}

func TestWriteRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteRaw(&buf, make([]byte, MaxBlockSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB claim
	if _, _, err := ReadBlock(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// dial opens a sender connection to l and closes it when the test ends.
func dial(t *testing.T, l *Listener) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestListenersReceiveFromSeparateSenders(t *testing.T) {
	l1, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()

	data := block.Marshal(makeBlock(t, 0, 3))
	var sent int64
	for _, l := range []*Listener{l1, l2} {
		n, err := WriteRaw(dial(t, l), data)
		if err != nil {
			t.Fatal(err)
		}
		sent += int64(n)
	}

	for i, l := range []*Listener{l1, l2} {
		got := <-l.Blocks()
		if got.Header.Number != 0 || len(got.Envelopes) != 3 {
			t.Errorf("peer %d: block %d/%d envs", i, got.Header.Number, len(got.Envelopes))
		}
	}
	if l1.BytesReceived() == 0 {
		t.Error("byte counters not updated")
	}
	if sent != l1.BytesReceived()+l2.BytesReceived() {
		t.Errorf("sent %d != received %d+%d", sent, l1.BytesReceived(), l2.BytesReceived())
	}
}

func TestSequentialBlocks(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conn := dial(t, l)
	for i := uint64(0); i < 5; i++ {
		if _, err := WriteBlock(conn, makeBlock(t, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		got := <-l.Blocks()
		if got.Header.Number != i {
			t.Errorf("block %d arrived out of order as %d", i, got.Header.Number)
		}
	}
}

// TestListenerCountsDecodeErrors feeds garbage and oversized frames and
// checks they are counted instead of silently swallowed.
func TestListenerCountsDecodeErrors(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	send := func(frame []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	// A well-formed length prefix followed by bytes that do not decode as
	// a block.
	garbage := append([]byte{0, 0, 0, 8}, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef)
	send(garbage)
	// A frame claiming 4 GiB.
	send([]byte{0xff, 0xff, 0xff, 0xff})

	deadline := time.Now().Add(5 * time.Second)
	for l.DecodeErrors() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("decode errors = %d, want 2", l.DecodeErrors())
		}
		time.Sleep(time.Millisecond)
	}

	// A clean connect/disconnect must not count.
	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	time.Sleep(20 * time.Millisecond)
	if n := l.DecodeErrors(); n != 2 {
		t.Errorf("decode errors = %d after clean disconnect, want 2", n)
	}
}

func BenchmarkGossipRoundTrip(b *testing.B) {
	blk := makeBlock(b, 0, 100)
	data := block.Marshal(blk)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := WriteRaw(&buf, data); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadBlock(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestListenerDoubleClose pins the review fix: error-path cleanup may
// close a peer's listener twice; the second call must be a no-op, not a
// close-of-closed-channel panic.
func TestListenerDoubleClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
