package core

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/population"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/tlssim"
)

// SiteClass is the §6.1 target taxonomy.
type SiteClass int

// The three site classes.
const (
	SitePopular SiteClass = iota
	SiteUniversity
	SiteInvalid
)

// String names the class.
func (c SiteClass) String() string {
	switch c {
	case SitePopular:
		return "popular"
	case SiteUniversity:
		return "university"
	case SiteInvalid:
		return "invalid"
	}
	return fmt.Sprintf("SiteClass(%d)", int(c))
}

// SiteResult is the per-site handshake outcome.
type SiteResult struct {
	Host  string    `json:"host"`
	Class SiteClass `json:"class"`
	// Replaced: the presented chain is not the genuine one.
	Replaced bool `json:"replaced,omitempty"`
	// IssuerCN of the presented leaf (Table 8's grouping key).
	IssuerCN string `json:"issuer_cn,omitempty"`
	// LeafKey of the presented leaf (key-reuse analysis).
	LeafKey cert.KeyID `json:"leaf_key"`
	// ChainValid: the presented chain verifies against the clean OS store —
	// for invalid sites this exposes certificate laundering (§6.2).
	ChainValid bool `json:"chain_valid,omitempty"`
	// Err records handshake failure.
	Err string `json:"err,omitempty"`
}

// TLSObservation is one measured node.
type TLSObservation struct {
	ZID     string          `json:"zid"`
	NodeIP  netip.Addr      `json:"node_ip"`
	ASN     geo.ASN         `json:"asn"`
	Country geo.CountryCode `json:"country"`
	// Phase2 reports whether the full 33-site scan ran.
	Phase2 bool         `json:"phase2,omitempty"`
	Sites  []SiteResult `json:"sites"`
}

// AnyReplaced reports whether any probed site presented a replaced chain.
func (o *TLSObservation) AnyReplaced() bool {
	for _, s := range o.Sites {
		if s.Replaced {
			return true
		}
	}
	return false
}

// TLSDataset is the HTTPS experiment's output. Discarded counts sessions
// where the exit node changed during phase 1.
type TLSDataset struct {
	Dataset[*TLSObservation]
	// Probes counts CONNECT tunnels opened — the bandwidth metric the
	// two-phase design minimizes (§6.1).
	Probes int64
}

// TLSExperiment drives §6's methodology.
type TLSExperiment struct {
	Client *proxynet.Client
	Geo    *geo.Registry
	Trust  *cert.Store
	// Sites is the target list: the world's site registry. A site's class
	// is the list it was drawn from.
	Sites   *population.SiteRegistry
	Weights map[geo.CountryCode]int
	Crawl   CrawlConfig
	Seed    uint64
	// Now supplies verification time.
	Now func() time.Time
	// AlwaysFullScan disables the two-phase optimization (ablation).
	AlwaysFullScan bool
}

// Run executes the crawl. The tunnel count is the crawl's own, so two runs
// of one driver, one after the other or at once, each count their own.
func (e *TLSExperiment) Run(ctx context.Context) (*TLSDataset, error) {
	m := e.Crawl.Metrics
	var probes atomic.Int64
	crawl, err := runCrawl(ctx, e.Crawl, e.Weights, e.Seed, crawlSpec[*TLSObservation]{
		name: "tls", stream: "crawl/tls",
		measure: func(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (*TLSObservation, outcome) {
			return e.measure(ctx, cr, cc, sess, &probes)
		},
		zid:              func(o *TLSObservation) string { return o.ZID },
		violation:        (*TLSObservation).AnyReplaced,
		violationCounter: "tls_replaced_total", violationDetail: "tls_cert_replaced",
		onOK: func(_ int, o *TLSObservation) {
			if o.Phase2 {
				m.Counter("tls_phase2_total").Inc()
			}
		},
		discardedCounter: "crawl_discarded_total",
	})
	ds := &TLSDataset{Dataset: *crawl, Probes: probes.Load()}
	m.Counter("tls_probes_total").Add(ds.Probes)
	return ds, err
}

// measure performs the two-phase scan (§6.1, Figure 3) through one node,
// counting each tunnel it opens in probes.
func (e *TLSExperiment) measure(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string, probes *atomic.Int64) (*TLSObservation, outcome) {
	popular := e.Sites.Popular[cc]
	if len(popular) == 0 {
		// No usable ranking for this country (the reason the experiment
		// covers 115 countries, §6.2).
		return nil, outcomeFailed
	}
	rng := simnet.SubRand(e.Seed, "tls/"+sess)
	// One site of each class, in SiteClass order.
	phase1 := [...]*population.Site{
		popular[rng.IntN(len(popular))],
		e.Sites.Universities[rng.IntN(len(e.Sites.Universities))],
		e.Sites.Invalid[rng.IntN(len(e.Sites.Invalid))],
	}
	opts := proxynet.Options{Country: cc, Session: sess}
	obs := &TLSObservation{}

	for i, site := range phase1 {
		res, dbg, err := e.probe(ctx, opts, site, SiteClass(i), probes)
		if err != nil {
			if i == 0 {
				return nil, classifyFailure(err, dbg)
			}
			res.Err = err.Error()
		}
		if i == 0 {
			zid, isNew := cr.observe(dbg.ZID)
			if !isNew {
				return nil, outcomeDuplicate
			}
			obs.ZID = zid
			obs.NodeIP = dbg.NodeIP
			obs.ASN, obs.Country = locate(e.Geo, obs.NodeIP)
			obs.Sites = make([]SiteResult, 0, len(phase1))
		} else if dbg != nil && dbg.ZID != obs.ZID {
			return obs, outcomeDiscarded
		}
		obs.Sites = append(obs.Sites, res)
	}

	if obs.AnyReplaced() || e.AlwaysFullScan {
		obs.Phase2 = true
		probed := map[string]bool{}
		for _, s := range obs.Sites {
			probed[s.Host] = true
		}
	scan:
		for class, sites := range [...][]*population.Site{popular, e.Sites.Universities, e.Sites.Invalid} {
			for _, site := range sites {
				if probed[site.Host] {
					continue
				}
				res, dbg, err := e.probe(ctx, opts, site, SiteClass(class), probes)
				if err != nil {
					res.Err = err.Error()
				} else if dbg.ZID != obs.ZID {
					break scan
				}
				obs.Sites = append(obs.Sites, res)
			}
		}
	}
	return obs, outcomeOK
}

// probe opens one tunnel, counted in probes, and collects and judges the
// site's chain through it. On error the result carries the site's host and
// class alone.
func (e *TLSExperiment) probe(ctx context.Context, opts proxynet.Options, site *population.Site, class SiteClass, probes *atomic.Int64) (SiteResult, *proxynet.Debug, error) {
	res := SiteResult{Host: site.Host, Class: class}
	probes.Add(1)
	conn, dbg, err := e.Client.Connect(ctx, opts, site.Addr)
	if err != nil {
		return res, dbg, err
	}
	defer conn.Close()
	chain, err := tlssim.CollectChain(conn, site.Host)
	if err != nil {
		return res, dbg, err
	}
	chargeBytes(e.Crawl.Metrics, cert.ChainSize(chain))
	if len(chain) == 0 {
		return res, dbg, fmt.Errorf("empty chain")
	}
	leaf := chain[0]
	res.IssuerCN = issuerCN(leaf, site.Chain[0])
	res.LeafKey = leaf.PublicKey
	res.ChainValid = e.Trust.Verify(site.Host, chain, e.Now()) == nil
	switch class {
	case SiteInvalid:
		// Exact-match check: the team knows exactly which certificate it
		// serves (§6.1).
		res.Replaced = leaf.Fingerprint() != site.Chain[0].Fingerprint()
	default:
		// CDNs rotate certificates, so validation — not exact matching —
		// is the criterion for the first two classes (§6.1 footnote).
		res.Replaced = !res.ChainValid
	}
	return res, dbg, nil
}

// issuerCN is the presented leaf's issuer name as the dataset keeps it. A
// decoded name is a substring of the chain's one string and would keep the
// whole encoding alive in the dataset, so it is never kept itself: an
// issuer the genuine leaf shares — every chain nobody replaced — is the
// genuine leaf's string, and any other is copied.
func issuerCN(leaf, genuine *cert.Certificate) string {
	if cn := genuine.Issuer.CommonName; leaf.Issuer.CommonName == cn {
		return cn
	}
	return strings.Clone(leaf.Issuer.CommonName)
}
