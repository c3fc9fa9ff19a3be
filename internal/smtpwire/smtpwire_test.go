package smtpwire

import (
	"net"
	"slices"
	"strings"
	"testing"
)

func runSession(t *testing.T, srv *Server, mitm func([]byte) []byte) (*Session, error) {
	t.Helper()
	c, s := net.Pipe()
	defer c.Close()
	go func() {
		defer s.Close()
		if mitm == nil {
			srv.ServeOnce(s)
			return
		}
		// A middlebox sits between: run the server on an inner pipe and
		// relay with rewriting.
		innerC, innerS := net.Pipe()
		defer innerC.Close()
		go func() {
			defer innerS.Close()
			srv.ServeOnce(innerS)
		}()
		go func() {
			buf := make([]byte, 4096)
			for {
				n, err := innerC.Read(buf)
				if n > 0 {
					if _, werr := s.Write(mitm(buf[:n])); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
		buf := make([]byte, 4096)
		for {
			n, err := s.Read(buf)
			if n > 0 {
				if _, werr := innerC.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	return Probe(c, "probe.tft-example.net")
}

func TestProbeHonestServer(t *testing.T) {
	srv := NewServer("mail.tft-example.net")
	sess, err := runSession(t, srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sess.Banner, "mail.tft-example.net") {
		t.Fatalf("banner = %q", sess.Banner)
	}
	if !sess.StartTLS {
		t.Fatalf("STARTTLS missing: %v", sess.Capabilities)
	}
	if len(sess.Capabilities) != 3 {
		t.Fatalf("capabilities = %v", sess.Capabilities)
	}
}

func TestProbeThroughStartTLSStripper(t *testing.T) {
	srv := NewServer("mail.tft-example.net")
	sess, err := runSession(t, srv, StripSTARTTLS)
	if err != nil {
		t.Fatal(err)
	}
	if sess.StartTLS {
		t.Fatalf("STARTTLS survived the stripper: %v", sess.Capabilities)
	}
	// The remaining capabilities are intact and the reply stayed
	// well-formed (Probe would error on bad framing).
	if len(sess.Capabilities) != 2 {
		t.Fatalf("capabilities = %v", sess.Capabilities)
	}
}

func TestStripSTARTTLSRepairsFraming(t *testing.T) {
	in := "250-mail greets you\r\n250-8BITMIME\r\n250-PIPELINING\r\n250 STARTTLS\r\n"
	out := string(StripSTARTTLS([]byte(in)))
	if strings.Contains(out, "STARTTLS") {
		t.Fatalf("STARTTLS not stripped: %q", out)
	}
	if !strings.Contains(out, "250 PIPELINING") {
		t.Fatalf("last-line framing not repaired: %q", out)
	}
}

func TestStripSTARTTLSPassesOtherTraffic(t *testing.T) {
	in := "220 mail.example ESMTP ready\r\n"
	if got := string(StripSTARTTLS([]byte(in))); got != in {
		t.Fatalf("greeting altered: %q", got)
	}
}

func TestServerUnknownCommand(t *testing.T) {
	srv := NewServer("mail.tft-example.net")
	c, s := net.Pipe()
	defer c.Close()
	go func() {
		defer s.Close()
		srv.ServeOnce(s)
	}()
	buf := make([]byte, 256)
	n, _ := c.Read(buf) // greeting
	_ = n
	c.Write([]byte("MAIL FROM:<x@y>\r\n"))
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf[:n]), "502") {
		t.Fatalf("reply = %q", buf[:n])
	}
	c.Write([]byte("QUIT\r\n"))
}

// writeLog is a server's side of a scripted session: it reads the script
// and keeps every Write apart.
type writeLog struct {
	script *strings.Reader
	writes []string
}

func (w *writeLog) Read(p []byte) (int, error) { return w.script.Read(p) }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// TestServeOnceTranscript pins a session's bytes and their Writes: the
// greeting, then one Write per command line — the chunks an on-path
// stripper rewrites — matched on the trimmed, upper-cased line, up to and
// including QUIT's.
func TestServeOnceTranscript(t *testing.T) {
	srv := NewServer("mail.tft-example.net")
	w := &writeLog{script: strings.NewReader("ehlo x\r\nMAIL FROM:<a>\r\n  quit\r\nEHLO after\r\n")}
	if err := srv.ServeOnce(w); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"220 mail.tft-example.net ESMTP tftmail ready\r\n",
		"250-mail.tft-example.net greets you\r\n250-8BITMIME\r\n250-PIPELINING\r\n250 STARTTLS\r\n",
		"502 command not implemented\r\n",
		"221 mail.tft-example.net closing\r\n",
	}
	if !slices.Equal(w.writes, want) {
		t.Fatalf("writes = %q\nwant %q", w.writes, want)
	}
}
