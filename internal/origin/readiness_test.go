package origin

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/smtpwire"
	"github.com/tftproject/tft/internal/tlssim"
)

// siteRecord is the record the test sites answer every hello with.
var siteRecord = append([]byte{byte(tlssim.RecordCertificates), 0, 0, 5}, "chain"...)

// hello frames a ClientHello for sni.
func hello(sni string) []byte {
	return append([]byte{byte(tlssim.RecordClientHello), 0, 0, 2 + byte(len(sni)), 0, byte(len(sni))}, sni...)
}

// dialSite registers a site on a fabric with HandleTCP and dials it. ran
// reports whether the site's accept has run; runAccept runs it.
func dialSite(t *testing.T) (conn net.Conn, runAccept func(), ran func() bool) {
	t.Helper()
	f := simnet.NewFabric()
	site := FramedTLSSite(func(string) []byte { return siteRecord })
	accepted := false
	f.HandleTCP(srvIP, 443, func(c net.Conn) {
		accepted = true
		site(c)
	})
	f.HandleTCP(srvIP, 9, func(c net.Conn) { c.Close() })
	conn, err := f.Dial(context.Background(), nodeIP, srvIP, 443)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	// A second dial, to a handler that only closes, read to its EOF: the
	// read pumps the fabric's run queue, which is FIFO, so the site's accept
	// runs first, with nothing more written to it.
	runAccept = func() {
		t.Helper()
		other, err := f.Dial(context.Background(), nodeIP, srvIP, 9)
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if got, err := io.ReadAll(other); err != nil || len(got) != 0 {
			t.Fatalf("the closing handler answered %q, %v", got, err)
		}
		if n, err := conn.(*simnet.Stream).TryRead(make([]byte, 1)); n != 0 || !errors.Is(err, simnet.ErrWouldBlock) {
			t.Fatalf("a site with no whole hello answered %d bytes, %v", n, err)
		}
	}
	return conn, runAccept, func() bool { return accepted }
}

// TestTLSSiteAnswersAHelloAfterItsAccept: the site's accept runs, finds
// nothing and returns; the hello written after it is answered from the
// stream's readiness callback, with the record as it is, then the close.
func TestTLSSiteAnswersAHelloAfterItsAccept(t *testing.T) {
	conn, runAccept, ran := dialSite(t)
	runAccept()
	if !ran() {
		t.Fatal("the accept did not run before the one queued after it")
	}
	if _, err := conn.Write(hello("site.example")); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(conn); err != nil || string(got) != string(siteRecord) {
		t.Fatalf("read %q, %v; want the site's record, then EOF", got, err)
	}
}

// TestTLSSiteGathersASplitHello: a hello split over two writes, the first
// short of the header, is answered once it is whole.
func TestTLSSiteGathersASplitHello(t *testing.T) {
	for _, cut := range []int{1, 3, 4, 7} {
		conn, runAccept, _ := dialSite(t)
		h := hello("site.example")
		conn.Write(h[:cut])
		runAccept()
		conn.Write(h[cut:])
		if got, err := io.ReadAll(conn); err != nil || string(got) != string(siteRecord) {
			t.Fatalf("cut at %d: read %q, %v; want the site's record, then EOF", cut, got, err)
		}
	}
}

// TestTLSSiteClosesWithNothingWritten: a client that sends EOF before a
// whole hello, or whose first record is no hello, is closed with nothing
// written, as tlssim.ServeOnce closes it.
func TestTLSSiteClosesWithNothingWritten(t *testing.T) {
	for _, tc := range []struct {
		name string
		sent []byte
	}{
		{"EOF inside the header", hello("site.example")[:2]},
		{"EOF inside the payload", hello("site.example")[:9]},
		{"an alert", append([]byte{byte(tlssim.RecordAlert), 0, 0, 3}, "bye"...)},
		{"a hello whose name overruns it", []byte{byte(tlssim.RecordClientHello), 0, 0, 3, 0, 9, 'x'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, _, _ := dialSite(t)
			conn.Write(tc.sent)
			conn.(*simnet.Stream).CloseWrite()
			if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
				t.Fatalf("read %q, %v; want nothing, then EOF", got, err)
			}
			if _, err := conn.Write([]byte("more")); !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("a write after the site's close: %v, want io.ErrClosedPipe", err)
			}
		})
	}
}

// TestTLSSiteAllocs holds a site's answer on a fabric stream to what it
// allocates beyond the connection: its one tlsSite struct and the server
// name tlssim.Answer hands the RecordSource when the hello is in at the
// accept, as on the crawl's path, plus the notify callback when the site
// has to wait for it. TestFramedTLSSiteServesTheRecordItHolds counts the
// blocking form a real socket gets.
func TestTLSSiteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	site := FramedTLSSite(func(string) []byte { return siteRecord })
	h := hello("site.example")
	var buf [64]byte
	// handshake runs one handshake over a warmed simnet.Pipe, whose conn is
	// its one allocation; without a site the test closes the server end.
	handshake := func(site simnet.ConnHandler, helloFirst bool) func() {
		return func() {
			client, server := simnet.Pipe(0)
			if helloFirst {
				client.TryWrite(h)
			}
			if site == nil {
				server.Close()
				client.Close()
				return
			}
			site(server)
			if !helloFirst {
				client.TryWrite(h)
			}
			if n, _ := client.TryRead(buf[:]); string(buf[:n]) != string(siteRecord) {
				t.Fatalf("the site answered %q", buf[:n])
			}
			if _, err := client.TryRead(buf[:]); err != io.EOF {
				t.Fatalf("after the record: %v, want the site's EOF", err)
			}
			client.Close()
		}
	}
	allocs := func(f func()) float64 {
		for i := 0; i < 16; i++ { // warms the pair and ring pools
			f()
		}
		return testing.AllocsPerRun(200, f)
	}
	pipe := allocs(handshake(nil, true))
	for _, tc := range []struct {
		name       string
		helloFirst bool
		want       float64
	}{
		{"hello in at the accept", true, 2},
		{"hello after the accept", false, 3},
	} {
		if got := allocs(handshake(site, tc.helloFirst)) - pipe; got != tc.want {
			t.Errorf("%s: the site allocated %v times, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMailServerGreetsAtAccept: on a fabric the mail server writes its
// greeting when its accept runs, before the client has sent a byte, and
// then answers line by line until QUIT.
func TestMailServerGreetsAtAccept(t *testing.T) {
	f := simnet.NewFabric()
	mail := smtpwire.NewServer("mail.example")
	f.HandleTCP(srvIP, 25, MailServer(mail))
	conn, err := f.Dial(context.Background(), nodeIP, srvIP, 25)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sess, err := smtpwire.Probe(conn, "probe.example")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Banner != "mail.example ESMTP tftmail ready" || !sess.StartTLS {
		t.Fatalf("session = %+v", sess)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after QUIT: %v, want io.EOF", err)
	}
}

// A transcript is what a server wrote at each step of a client's session,
// and the step at which it closed. Step 0 is the accept, step i the
// arrival of the client's i-th chunk, the last step the client's EOF.
type transcript struct {
	wrote  []string
	closed int // -1: still open
}

// chunked splits in into the sizes cuts names, cycling through them.
func chunked(in, cuts []byte) [][]byte {
	var chunks [][]byte
	for i, k := 0, 0; i < len(in); k++ {
		n := len(in) - i
		if len(cuts) > 0 {
			n = min(n, 1+int(cuts[k%len(cuts)]))
		}
		chunks = append(chunks, in[i:i+n])
		i += n
	}
	return chunks
}

// scriptConn is the oracle's connection: each Read hands out what is left
// of the client's current chunk, and moves to the next chunk only once it
// is spent — the client writes a chunk when the server waits for it.
type scriptConn struct {
	chunks [][]byte
	step   int // the chunks handed out so far
	cur    []byte
	t      transcript
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.cur) == 0 {
		if c.step > len(c.chunks) {
			return 0, io.EOF
		}
		if c.step == len(c.chunks) {
			c.step++ // the EOF step
			return 0, io.EOF
		}
		c.cur = c.chunks[c.step]
		c.step++
	}
	n := copy(p, c.cur)
	c.cur = c.cur[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.t.wrote[c.step] += string(p)
	return len(p), nil
}

// oracleTranscript runs a blocking server over chunks; returning is its
// close.
func oracleTranscript(serve func(io.ReadWriter), chunks [][]byte) transcript {
	c := &scriptConn{chunks: chunks, t: transcript{wrote: make([]string, len(chunks)+2)}}
	serve(c)
	c.t.closed = c.step
	return c.t
}

// readinessTranscript runs h on one end of a simnet.Pipe and feeds chunks
// to it from the other by TryWrite, one at a time, reading everything the
// server writes after each; the server's EOF is its close.
func readinessTranscript(t *testing.T, h simnet.ConnHandler, chunks [][]byte) transcript {
	client, server := simnet.Pipe(0)
	defer client.Close()
	tr := transcript{wrote: make([]string, len(chunks)+2), closed: -1}
	buf := make([]byte, 4096)
	// drain reads what the server wrote at step and reports whether it
	// read anything.
	drain := func(step int) bool {
		read := false
		for {
			n, err := client.TryRead(buf)
			tr.wrote[step] += string(buf[:n])
			read = read || n > 0
			if err == nil {
				continue
			}
			if err != simnet.ErrWouldBlock && tr.closed < 0 {
				if err != io.EOF {
					t.Fatalf("step %d: the client read %v, want the server's EOF", step, err)
				}
				tr.closed = step
			}
			return read
		}
	}
	h(server)
	drain(0)
	for i, chunk := range chunks {
		for tr.closed < 0 && len(chunk) > 0 {
			n, err := client.TryWrite(chunk)
			chunk = chunk[n:]
			if !drain(i+1) && n == 0 && err == simnet.ErrWouldBlock {
				t.Fatalf("step %d: the server takes no more and writes nothing", i+1)
			}
		}
	}
	if tr.closed < 0 {
		client.CloseWrite()
		drain(len(chunks) + 1)
	}
	return tr
}

// agree fails t unless the readiness server's transcript is the oracle's.
func agree(t *testing.T, got, want transcript) {
	t.Helper()
	if got.closed != want.closed || !slices.Equal(got.wrote, want.wrote) {
		t.Fatalf("readiness server wrote %q and closed at step %d;\nServeOnce wrote %q and closed at step %d",
			got.wrote, got.closed, want.wrote, want.closed)
	}
}

// fuzzRecords answers server names of even length with a record naming
// them and the rest with nothing, so both the record and the alert count.
func fuzzRecords(sni string) []byte {
	if len(sni)%2 != 0 {
		return nil
	}
	return append([]byte{byte(tlssim.RecordCertificates), 0, 0, byte(len(sni))}, sni...)
}

// FuzzTLSSiteAgreesWithServeOnce: for any client bytes at any chunk
// boundaries, a site answering on readiness callbacks writes at each step
// what tlssim.ServeOnce, the blocking server it replaced on the fabric,
// writes at that step, and closes at the same step.
func FuzzTLSSiteAgreesWithServeOnce(f *testing.F) {
	f.Add(hello("ab"), []byte{})
	f.Add(hello("abc"), []byte{0})
	f.Add(append(hello("site.example"), "trailing"...), []byte{2, 0, 9})
	f.Add(hello("site.example")[:5], []byte{})
	f.Add([]byte{byte(tlssim.RecordClientHello), 0, 0, 3, 0, 9, 'x'}, []byte{})
	f.Add([]byte{byte(tlssim.RecordClientHello), 0, 0, 1, 0}, []byte{})
	f.Add(append([]byte{byte(tlssim.RecordAlert), 0, 0, 1}, 'x'), []byte{3})
	f.Add([]byte{byte(tlssim.RecordCertificates), 0, 1, 0, 1, 2, 3}, []byte{255})
	f.Add(append([]byte{byte(tlssim.RecordClientHello), 0, 0, 92, 0, 90}, make([]byte, 90)...), []byte{30})
	f.Add([]byte{}, []byte{})
	site := FramedTLSSite(fuzzRecords)
	f.Fuzz(func(t *testing.T, fromClient, cuts []byte) {
		chunks := chunked(fromClient, cuts)
		want := oracleTranscript(func(rw io.ReadWriter) { tlssim.ServeOnce(rw, fuzzRecords) }, chunks)
		agree(t, readinessTranscript(t, site, chunks), want)
	})
}

// FuzzMailServerAgreesWithServeOnce: for any client bytes at any chunk
// boundaries, the mail server answering on readiness callbacks writes at
// each step what smtpwire.Server.ServeOnce, the blocking server it
// replaced on the fabric, writes at that step, and closes at the same step.
func FuzzMailServerAgreesWithServeOnce(f *testing.F) {
	f.Add([]byte("EHLO probe.example\r\nQUIT\r\n"), []byte{})
	f.Add([]byte("EHLO probe.example\r\nQUIT\r\n"), []byte{0})
	f.Add([]byte("helo x\nMAIL FROM:<a@b>\r\n  quit  \r\nEHLO late\r\n"), []byte{4, 11})
	f.Add([]byte("EHLO no newline"), []byte{2})
	f.Add([]byte("\n\n\r\n"), []byte{})
	f.Add(append([]byte("NOOP "), make([]byte, 700)...), []byte{200})
	f.Add([]byte{}, []byte{})
	mail := smtpwire.NewServer("mail.example")
	server := MailServer(mail)
	f.Fuzz(func(t *testing.T, fromClient, cuts []byte) {
		chunks := chunked(fromClient, cuts)
		want := oracleTranscript(func(rw io.ReadWriter) { mail.ServeOnce(rw) }, chunks)
		agree(t, readinessTranscript(t, server, chunks), want)
	})
}
