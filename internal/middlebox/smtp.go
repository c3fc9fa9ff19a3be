package middlebox

import "github.com/tftproject/tft/internal/smtpwire"

// STARTTLSStripper is the middlebox the §3.4 SMTP extension detects: a
// device on the node's path that deletes the STARTTLS capability from EHLO
// replies so mail sessions stay in cleartext.
type STARTTLSStripper struct {
	// Product names the stripping party.
	Product string
}

// AppliesTo implements StreamInterceptor: mail submission ports only.
func (st STARTTLSStripper) AppliesTo(port uint16) bool {
	return port == 25 || port == 587
}

// RewriteS2C implements StreamInterceptor.
func (st STARTTLSStripper) RewriteS2C(chunk []byte) []byte {
	return smtpwire.StripSTARTTLS(chunk)
}
