package middlebox

import "github.com/tftproject/tft/internal/smtpwire"

// STARTTLSStripper is the middlebox the §3.4 SMTP extension detects: a
// device on the node's path that deletes the STARTTLS capability from EHLO
// replies so mail sessions stay in cleartext. It engages on the mail ports
// only (see Path.StreamFor), and rewrites only the server→client direction,
// which carries the capability advertisements.
type STARTTLSStripper struct {
	// Product names the stripping party.
	Product string
}

// MailPort reports whether port is a mail port: SMTP (25) or submission
// (587). The STARTTLS strippers own tunnels to them; TLS interceptors leave
// them alone.
func MailPort(port uint16) bool { return port == 25 || port == 587 }

// RewriteS2C rewrites one server→client chunk.
func (st STARTTLSStripper) RewriteS2C(chunk []byte) []byte {
	return smtpwire.StripSTARTTLS(chunk)
}
