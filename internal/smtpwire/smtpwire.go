// Package smtpwire implements the client and server halves of an SMTP
// session prefix — greeting, EHLO, capability advertisement, STARTTLS —
// plus the middlebox behaviours that violate it.
//
// The paper's §3.4 leaves this as future work: "we could extend our
// methodologies for VPNs that allow arbitrary traffic to be sent, enabling
// us to capture end-to-end connectivity violations in protocols like
// SMTP." This package, together with proxynet's any-port tunnel mode and
// core.SMTPExperiment, implements that extension: through a tunnel that
// permits port 25, a client collects each exit node's view of a mail
// server's banner and capabilities and detects the two classic violations —
// outright port-25 blocking and STARTTLS stripping (a middlebox deleting
// the STARTTLS capability so the session stays in cleartext).
package smtpwire

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Capabilities a server advertises in its EHLO response.
const (
	CapStartTLS = "STARTTLS"
	CapPipelive = "PIPELINING"
	Cap8BitMIME = "8BITMIME"
)

// Banner is a server's identity line (code 220).
type Banner struct {
	// Hostname the server announces.
	Hostname string
	// Software tag (e.g. "ESMTP tftmail").
	Software string
}

// String renders the 220 greeting.
func (b Banner) String() string {
	return fmt.Sprintf("220 %s %s ready", b.Hostname, b.Software)
}

// Session is what a client learned from one SMTP exchange.
type Session struct {
	Banner string
	// Capabilities advertised in response to EHLO, sorted.
	Capabilities []string
	// StartTLS reports whether STARTTLS was among them.
	StartTLS bool
}

// Server answers the session prefix: greeting, EHLO, QUIT. It never
// accepts mail — like the measurement methodology, it terminates before
// any content flows.
type Server struct {
	Banner       Banner
	Capabilities []string
}

// NewServer builds a server advertising STARTTLS plus the common
// capabilities.
func NewServer(hostname string) *Server {
	return &Server{
		Banner:       Banner{Hostname: hostname, Software: "ESMTP tftmail"},
		Capabilities: []string{CapPipelive, Cap8BitMIME, CapStartTLS},
	}
}

// ServeOnce handles a single session prefix on rw: the greeting, then
// each command line's Reply, every one in one Write — the chunks an
// on-path rewriter sees — until QUIT, an error or the client's EOF. The
// world's mail server answers on readiness callbacks instead
// (origin.MailServer); this blocking form is the oracle it is held to.
func (s *Server) ServeOnce(rw io.ReadWriter) error {
	if _, err := rw.Write(s.Greeting()); err != nil {
		return err
	}
	r := bufio.NewReader(rw)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		reply, quit := s.Reply(line)
		if _, err := rw.Write(reply); err != nil || quit {
			return err
		}
	}
}

// Greeting is the 220 line a server opens a session with.
func (s *Server) Greeting() []byte {
	return []byte(s.Banner.String() + "\r\n")
}

// Reply returns the server's answer to one command line (its "\n"
// included or not) and whether the session ends after it: the
// capabilities for EHLO or HELO, 221 for QUIT, 502 for anything else.
// Every server answers through it: ServeOnce, and the event-driven mail
// server that gathers lines from a stream's readiness callbacks
// (origin.MailServer).
func (s *Server) Reply(line string) (reply []byte, quit bool) {
	cmd := strings.ToUpper(strings.TrimSpace(line))
	switch {
	case strings.HasPrefix(cmd, "EHLO"), strings.HasPrefix(cmd, "HELO"):
		caps := append([]string(nil), s.Capabilities...)
		sort.Strings(caps)
		reply = fmt.Appendf(nil, "250-%s greets you\r\n", s.Banner.Hostname)
		for i, c := range caps {
			sep := "-"
			if i == len(caps)-1 {
				sep = " "
			}
			reply = fmt.Appendf(reply, "250%s%s\r\n", sep, c)
		}
		return reply, false
	case strings.HasPrefix(cmd, "QUIT"):
		return fmt.Appendf(nil, "221 %s closing\r\n", s.Banner.Hostname), true
	}
	return []byte("502 command not implemented\r\n"), false
}

// Probe performs the client half on rw: read the greeting, EHLO, collect
// capabilities, QUIT.
func Probe(rw io.ReadWriter, heloName string) (*Session, error) {
	r := bufio.NewReader(rw)
	greeting, err := readReply(r)
	if err != nil {
		return nil, fmt.Errorf("smtpwire: reading greeting: %w", err)
	}
	if !strings.HasPrefix(greeting[0], "220") {
		return nil, fmt.Errorf("smtpwire: unexpected greeting %q", greeting[0])
	}
	sess := &Session{Banner: strings.TrimPrefix(greeting[0], "220 ")}

	if _, err := fmt.Fprintf(rw, "EHLO %s\r\n", heloName); err != nil {
		return nil, err
	}
	reply, err := readReply(r)
	if err != nil {
		return nil, fmt.Errorf("smtpwire: reading EHLO reply: %w", err)
	}
	for _, line := range reply[1:] { // first line is the greeting echo
		cap := strings.ToUpper(strings.TrimSpace(line[4:]))
		sess.Capabilities = append(sess.Capabilities, cap)
		if cap == CapStartTLS {
			sess.StartTLS = true
		}
	}
	sort.Strings(sess.Capabilities)
	fmt.Fprintf(rw, "QUIT\r\n")
	readReply(r) // best effort
	return sess, nil
}

// readReply collects one (possibly multi-line) SMTP reply.
func readReply(r *bufio.Reader) ([]string, error) {
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if len(line) < 4 {
			return nil, fmt.Errorf("smtpwire: short reply line %q", line)
		}
		lines = append(lines, line)
		if line[3] == ' ' {
			return lines, nil
		}
		if line[3] != '-' {
			return nil, fmt.Errorf("smtpwire: malformed reply line %q", line)
		}
	}
}

// StripSTARTTLS rewrites a server→client byte chunk, deleting the STARTTLS
// capability line from EHLO replies — the classic middlebox downgrade that
// keeps mail sessions in cleartext. It operates on whole lines, which the
// relay guarantees by flushing per reply.
func StripSTARTTLS(chunk []byte) []byte {
	lines := strings.Split(string(chunk), "\r\n")
	out := make([]string, 0, len(lines))
	stripped := false
	for _, l := range lines {
		u := strings.ToUpper(l)
		if strings.HasPrefix(u, "250-STARTTLS") || strings.HasPrefix(u, "250 STARTTLS") {
			stripped = true
			continue
		}
		out = append(out, l)
	}
	if stripped {
		// The last capability line must use "250 " framing; repair it.
		for i := len(out) - 1; i >= 0; i-- {
			if strings.HasPrefix(out[i], "250-") {
				rest := out[i][4:]
				// Only repair if it is the final 250 line of the reply.
				isLast := true
				for j := i + 1; j < len(out); j++ {
					if strings.HasPrefix(out[j], "250") {
						isLast = false
						break
					}
				}
				if isLast {
					out[i] = "250 " + rest
				}
				break
			}
		}
	}
	return []byte(strings.Join(out, "\r\n"))
}
