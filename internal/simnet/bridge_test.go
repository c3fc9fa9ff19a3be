package simnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestAsStreamKeepsAStream(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	if AsStream(a, nil) != a {
		t.Fatal("AsStream wrapped a stream")
	}
}

// TestBridgeCarriesBytesAndEOF: a bridged connection's bytes reach the
// stream and the stream's reach it; its EOF reaches the stream as one, and
// the stream's Close reaches it once the bytes before it are out.
func TestBridgeCarriesBytesAndEOF(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	peer, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	sock, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	s := AsStream(sock, nil)
	peer.Write([]byte("from the socket"))
	peer.(*net.TCPConn).CloseWrite()
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "from the socket" {
		t.Fatalf("the stream read %q, %v", got, err)
	}
	s.Write([]byte("from the stream"))
	s.Close()
	got, err = io.ReadAll(peer)
	if err != nil || string(got) != "from the stream" {
		t.Fatalf("the socket read %q, %v", got, err)
	}
}

// failConn fails every Read with readErr (after its gate) and every Write
// with writeErr.
type failConn struct {
	net.Conn
	gate              chan struct{}
	readErr, writeErr error
}

func (c *failConn) Read([]byte) (int, error) {
	<-c.gate
	return 0, c.readErr
}
func (c *failConn) Write([]byte) (int, error) { return 0, c.writeErr }
func (c *failConn) Close() error              { return nil }

// TestBridgeSocketErrorsReset: a read or write error on the socket reaches
// the stream as an injected reset.
func TestBridgeSocketErrorsReset(t *testing.T) {
	broken := errors.New("connection reset by peer")
	read := &failConn{gate: make(chan struct{}), readErr: broken}
	close(read.gate)
	s := AsStream(read, nil)
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("after a read error the stream read %v, want ErrInjectedReset", err)
	}
	s.Close()

	write := &failConn{gate: make(chan struct{}), writeErr: broken}
	defer close(write.gate)
	s = AsStream(write, nil)
	s.Write([]byte("x"))
	s.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("after a write error the stream read %v, want ErrInjectedReset", err)
	}
	s.Close()
}
