package core

import (
	"context"
	"net/netip"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/smtpwire"
)

// SMTPObservation is one node's view of the mail server — the §3.4
// extension: through a VPN that tunnels arbitrary ports, SMTP becomes
// measurable.
type SMTPObservation struct {
	ZID     string          `json:"zid"`
	NodeIP  netip.Addr      `json:"node_ip"`
	ASN     geo.ASN         `json:"asn"`
	Country geo.CountryCode `json:"country"`
	// Blocked: the tunnel opened but no SMTP banner ever arrived — the
	// signature of ISP port-25 blocking (indistinguishable on the wire
	// from a dead server, which is why the experiment uses its own mail
	// server as the target).
	Blocked bool `json:"blocked,omitempty"`
	// StartTLS reports whether the STARTTLS capability survived the path.
	StartTLS bool `json:"starttls,omitempty"`
	// Banner is the greeting the node saw.
	Banner string `json:"banner,omitempty"`
}

// SMTPDataset is the extension experiment's output. Faults counts only
// probes lost before the tunnel opened: a fault after that is
// indistinguishable from port-25 blocking on the wire (the paper's own
// point about silent port blocking) and lands in Blocked.
type SMTPDataset = Dataset[*SMTPObservation]

// SMTPExperiment probes a mail server the measurement team controls
// through every exit node and detects port-25 blocking and STARTTLS
// stripping. It requires a tunnel service with AnyPortConnect (§3.4's
// hypothetical VPN); against the Luminati-faithful 443-only configuration
// every probe fails at the proxy, which is itself the paper's point.
type SMTPExperiment struct {
	Client  *proxynet.Client
	Geo     *geo.Registry
	Weights map[geo.CountryCode]int
	Crawl   CrawlConfig
	Seed    uint64
	// MailIP/MailHost locate the measurement mail server.
	MailIP   netip.Addr
	MailHost string
}

// Run executes the crawl.
func (e *SMTPExperiment) Run(ctx context.Context) (*SMTPDataset, error) {
	m := e.Crawl.Metrics
	return runCrawl(ctx, e.Crawl, e.Weights, e.Seed, crawlSpec[*SMTPObservation]{
		name: "smtp", stream: "crawl/smtp",
		measure:          e.measure,
		zid:              func(o *SMTPObservation) string { return o.ZID },
		violation:        func(o *SMTPObservation) bool { return !o.Blocked && !o.StartTLS },
		violationCounter: "smtp_stripped_total", violationDetail: "smtp_starttls_stripped",
		onOK: func(_ int, o *SMTPObservation) {
			if o.Blocked {
				m.Counter("smtp_blocked_total").Inc()
			}
		},
	})
}

// measure opens one tunnel to port 25 and runs the SMTP session prefix.
func (e *SMTPExperiment) measure(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (*SMTPObservation, outcome) {
	opts := proxynet.Options{Country: cc, Session: sess}
	conn, dbg, err := e.Client.Connect(ctx, opts, netip.AddrPortFrom(e.MailIP, 25).String())
	if err != nil {
		return nil, classifyFailure(err, dbg)
	}
	defer conn.Close()
	if dbg.ZID == "" {
		return nil, classifyFailure(nil, dbg)
	}
	zid, isNew := cr.observe(dbg.ZID)
	if !isNew {
		return nil, outcomeDuplicate
	}
	obs := &SMTPObservation{ZID: zid, NodeIP: dbg.NodeIP}
	obs.ASN, obs.Country = locate(e.Geo, obs.NodeIP)
	session, err := smtpwire.Probe(conn, e.MailHost)
	if err != nil {
		// The tunnel died before a banner: the node's ISP blocks the port.
		obs.Blocked = true
		return obs, outcomeOK
	}
	obs.Banner = session.Banner
	obs.StartTLS = session.StartTLS
	return obs, outcomeOK
}
