package smtpwire

import (
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

// FuzzProbe: whatever answers port 25, Probe returns a session or an error
// — never panics, never hangs. A scripted peer on a simnet.Pipe sends the
// input as the server's side of the exchange and then half-closes, so an
// honest Probe always has an end to read to; a read deadline turns a Probe
// that waits anyway into a failure instead of a stuck fuzz worker. A session
// it does return is consistent: capabilities sorted, StartTLS exactly when
// STARTTLS is among them.
func FuzzProbe(f *testing.F) {
	f.Add([]byte("220 mail.tft-example.net ESMTP tftmail ready\r\n" +
		"250-mail.tft-example.net greets you\r\n250-8BITMIME\r\n250-PIPELINING\r\n250 STARTTLS\r\n" +
		"221 mail.tft-example.net closing\r\n"))
	f.Add([]byte("220 mail ESMTP ready\r\n250-mail greets you\r\n250 pipelining\r\n"))
	f.Add([]byte("220 mail ESMTP ready\r\n250 mail greets you\r\n"))
	f.Add([]byte("220 mail ESMTP ready\r\n250-mail\r\n250xSTARTTLS\r\n"))
	f.Add([]byte("220-first\r\n220 second\r\n250 ok\r\n"))
	f.Add([]byte("554 no service here\r\n"))
	f.Add([]byte("220 no newline at all"))
	f.Add([]byte("22\r\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		client, server := simnet.Pipe(0)
		defer client.Close()
		go func() {
			defer server.Close()
			server.Write(script)
			server.CloseWrite()
		}()
		client.SetReadDeadline(simnet.Real{}.Now().Add(5 * time.Second))
		sess, err := Probe(client, "probe.tft-example.net")
		switch {
		case errors.Is(err, os.ErrDeadlineExceeded):
			t.Fatalf("Probe still waiting on %q after the peer closed", script)
		case err != nil:
			if sess != nil {
				t.Fatalf("Probe returned a session and an error: %+v, %v", sess, err)
			}
		case sess == nil:
			t.Fatal("Probe returned neither a session nor an error")
		case !slices.IsSorted(sess.Capabilities):
			t.Fatalf("capabilities not sorted: %q", sess.Capabilities)
		case sess.StartTLS != slices.Contains(sess.Capabilities, CapStartTLS):
			t.Fatalf("StartTLS %v with capabilities %q", sess.StartTLS, sess.Capabilities)
		}
	})
}
