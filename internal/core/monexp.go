package core

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
)

// UnexpectedRequest is one third-party fetch of a unique measurement domain
// (§7.1) — the content-monitoring signal.
type UnexpectedRequest struct {
	Src netip.Addr `json:"src"`
	// ASN and Org locate the requester (Table 9's grouping).
	ASN geo.ASN `json:"asn"`
	Org string  `json:"org,omitempty"`
	// Delay is the time between the node's own request and this one;
	// negative when the monitor raced ahead (Bluecoat).
	Delay time.Duration `json:"delay_ns"`
	// UserAgent the request carried.
	UserAgent string `json:"user_agent,omitempty"`
}

// MonObservation is one measured node.
type MonObservation struct {
	ZID     string          `json:"zid"`
	NodeIP  netip.Addr      `json:"node_ip"`
	ASN     geo.ASN         `json:"asn"`
	Country geo.CountryCode `json:"country"`
	// Host is the node's unique probe domain.
	Host string `json:"host"`
	// RequestAt is when the client issued the fetch.
	RequestAt time.Time `json:"request_at"`
	// ViaVPN: the node's own request arrived from an address other than the
	// service-reported node IP (AnchorFree, §7.2.1).
	ViaVPN bool `json:"via_vpn,omitempty"`
	// OwnSrc is the address the node's own request arrived from.
	OwnSrc netip.Addr `json:"own_src,omitzero"`
	// Unexpected lists the third-party fetches within the watch window.
	Unexpected []UnexpectedRequest `json:"unexpected,omitempty"`
}

// Monitored reports whether any third party refetched this node's domain.
func (o *MonObservation) Monitored() bool { return len(o.Unexpected) > 0 }

// MonDataset is the monitoring experiment's output.
type MonDataset = Dataset[*MonObservation]

// MonitorExperiment drives §7's methodology.
type MonitorExperiment struct {
	Client *proxynet.Client
	// Auth is the world's authoritative server. A node's name is resolved
	// once, by its own fetch — a monitor's refetch dials the web server's
	// address and asks the authority nothing — so the name's queries are
	// forgotten when the fetch ends.
	Auth    *dnsserver.Authority
	Web     *origin.Server
	Geo     *geo.Registry
	Clock   *simnet.Virtual
	Zone    string
	Weights map[geo.CountryCode]int
	Crawl   CrawlConfig
	Seed    uint64
}

const monPrefix = "u-"

// watchWindow is how long the server log is monitored after the fetches
// (paper: 24 hours).
const watchWindow = 24 * time.Hour

// Run crawls, waits out the watch window on the virtual clock, then
// collects the unexpected requests. Nothing reads the log of a session that
// produced no observation (a duplicate, a failure): its host is forgotten as
// the session ends, and again once the collection is done, since a
// monitor's refetch may have logged it anew in the watch window.
func (e *MonitorExperiment) Run(ctx context.Context) (*MonDataset, error) {
	m, prog := e.Crawl.Metrics, e.Crawl.Progress
	var mu sync.Mutex
	var unobserved []string // the hosts of the sessions without an observation
	// No violation hook: whether a node is monitored is only known once the
	// watch window below has run out.
	ds, err := runCrawl(ctx, e.Crawl, e.Weights, e.Seed, crawlSpec[*MonObservation]{
		name: "monitor", stream: "crawl/mon",
		measure: func(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (*MonObservation, outcome) {
			obs, host, oc := e.fetch(ctx, cr, cc, sess)
			if obs == nil {
				e.Web.Forget(host)
				mu.Lock()
				unobserved = append(unobserved, host)
				mu.Unlock()
			}
			return obs, oc
		},
		zid: func(o *MonObservation) string { return o.ZID },
	})

	// Monitors schedule their refetches on the virtual clock; advancing
	// past the watch window delivers every one that falls inside it.
	e.Clock.Advance(watchWindow)

	for _, obs := range ds.Observations {
		e.collect(obs)
		if obs.Monitored() {
			// The watch-window collection runs after the crawl, outside any
			// worker shard; violations land on shard 0.
			prog.Violation(0)
			m.Counter("monitor_monitored_total").Inc()
			m.Counter("monitor_unexpected_requests_total").Add(int64(len(obs.Unexpected)))
		}
	}
	for _, host := range unobserved {
		e.Web.Forget(host)
	}
	return ds, err
}

// fetch issues the single request for a node's unique domain, and returns
// the domain's host with what it observed.
func (e *MonitorExperiment) fetch(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (*MonObservation, string, outcome) {
	fqdn := monPrefix + sess + "." + e.Zone + "."
	host := fqdn[:len(fqdn)-1]
	defer e.Auth.Forget(fqdn)
	opts := proxynet.Options{Country: cc, Session: sess}
	at := e.Clock.Now()
	resp, dbg, err := e.Client.Get(ctx, opts, "http://"+host+"/")
	if err != nil || dbg == nil || dbg.ZID == "" || dbg.Err != "" {
		return nil, host, classifyFailure(err, dbg)
	}
	zid, isNew := cr.observe(dbg.ZID)
	if !isNew {
		return nil, host, outcomeDuplicate
	}
	chargeBytes(e.Crawl.Metrics, len(resp.Body))
	obs := &MonObservation{ZID: zid, NodeIP: dbg.NodeIP, Host: host, RequestAt: at}
	obs.ASN, obs.Country = locate(e.Geo, obs.NodeIP)
	return obs, host, outcomeOK
}

// collect splits the server log for the node's domain into its own request
// and the unexpected ones, computing delays. Nothing reads the host's log
// again, so it is taken: read and forgotten at once.
func (e *MonitorExperiment) collect(obs *MonObservation) {
	reqs := e.Web.Take(obs.Host)
	if len(reqs) == 0 {
		return
	}
	// Identify the node's own request: by source address, or — when the
	// node browses through a VPN — the earliest arrival.
	ownIdx := -1
	for i, r := range reqs {
		if r.Src == obs.NodeIP {
			ownIdx = i
			break
		}
	}
	if ownIdx < 0 {
		obs.ViaVPN = true
		ownIdx = 0
		for i, r := range reqs {
			if r.Time.Before(reqs[ownIdx].Time) {
				ownIdx = i
			}
		}
	}
	obs.OwnSrc = reqs[ownIdx].Src
	ownAt := reqs[ownIdx].Time
	cutoff := ownAt.Add(watchWindow)
	for i, r := range reqs {
		if i == ownIdx || r.Time.After(cutoff) {
			continue
		}
		u := UnexpectedRequest{Src: r.Src, Delay: r.Time.Sub(ownAt), UserAgent: r.UserAgent}
		if asn, ok := e.Geo.LookupAS(r.Src); ok {
			u.ASN = asn
			if org, ok := e.Geo.Org(asn); ok {
				u.Org = org.Name
			}
		}
		obs.Unexpected = append(obs.Unexpected, u)
	}
}
