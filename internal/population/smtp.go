package population

import (
	"net/netip"

	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/smtpwire"
)

// The SMTP world implements the paper's stated future work (§3.4): a VPN
// service that tunnels arbitrary ports, measured for mail-path violations.
// The paper publishes no numbers here, so the ground-truth rates below are
// plausible-world parameters (residential port-25 blocking is widespread;
// STARTTLS stripping is rarer and concentrated in a handful of networks),
// clearly marked as extension calibration rather than paper calibration.
const (
	// SMTPTotalNodes at scale 1.0.
	SMTPTotalNodes = 100_000
	// SMTPBlockedShare of nodes sit in ASes that block outbound port 25.
	SMTPBlockedShare = 0.12
	// SMTPStrippedShare of nodes sit behind STARTTLS-stripping middleboxes.
	SMTPStrippedShare = 0.015
	// SMTPStripperASes is how many ASes operate strippers.
	SMTPStrippedASes = 12
	// SMTPCountries spanned by the crawl.
	SMTPCountries = 120
)

// MailIP is the measurement team's SMTP server.
var MailIP = netip.MustParseAddr("198.18.0.25")

// MailHost is its hostname.
const MailHost = "mail." + Zone

// BuildSMTPWorld assembles the extension world: an any-port tunnel service
// and a node population with port-25 blockers and STARTTLS strippers.
func BuildSMTPWorld(seed uint64, scale float64) (*World, error) {
	w, err := newWorld(seed, scale, "smtp")
	if err != nil {
		return nil, err
	}
	// The hypothetical VPN allows arbitrary ports (§3.4).
	w.Super.AnyPortConnect = true

	// The measurement mail server. SMTP is server-talks-first (the 220
	// greeting) and multi-round, so it answers on its stream's readiness
	// callbacks: the greeting at accept, then a reply per line.
	w.Fabric.HandleTCP(MailIP, 25, origin.MailServer(smtpwire.NewServer(MailHost)))

	b := &smtpBuilder{World: w, asPools: w.newASPools(asCapacity)}
	b.build()
	return w, nil
}

type smtpBuilder struct {
	*World
	asPools
}

func (b *smtpBuilder) build() {
	total := b.scaledBg(SMTPTotalNodes)
	blocked := int(float64(total) * SMTPBlockedShare)
	stripped := int(float64(total) * SMTPStrippedShare)
	if stripped < SMTPStrippedASes {
		stripped = SMTPStrippedASes
	}
	countries := b.pickCountries(SMTPCountries, nil)

	// Port-25-blocking ASes: the block is an AS-level policy, so whole
	// background ASes carry it.
	for placed := 0; placed < blocked; {
		cc := countries[int(b.rng.IntN(len(countries)))]
		org := b.newOrg("", cc)
		asn := b.newAS(org, false)
		size := 30 + int(b.rng.IntN(60))
		for i := 0; i < size && placed < blocked; i++ {
			node := b.addNode(cc, asn, b.Google, &middlebox.Path{BlockedPorts: []uint16{25}})
			b.labels(node).HTTPModifier = "smtp:port25-blocked"
			placed++
		}
	}

	// STARTTLS strippers: a dozen ASes run mail-downgrading middleboxes.
	perAS := max(1, stripped/SMTPStrippedASes)
	placedStrip := 0
	for g := 0; g < SMTPStrippedASes && placedStrip < stripped; g++ {
		cc := countries[(g*7)%len(countries)]
		org := b.newOrg("", cc)
		asn := b.newAS(org, false)
		stripper := middlebox.STARTTLSStripper{Product: "mailguard appliance"}
		for i := 0; i < perAS && placedStrip < stripped; i++ {
			node := b.addNode(cc, asn, b.Google,
				&middlebox.Path{Stream: []middlebox.STARTTLSStripper{stripper}})
			b.labels(node).HTTPModifier = "smtp:starttls-stripped"
			placedStrip++
		}
	}

	// Clean remainder.
	for b.Pool.Len() < total {
		cc := countries[int(b.rng.IntN(len(countries)))]
		b.addNode(cc, b.bgAS(cc), b.Google, nil)
	}
}
