package core

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"sync"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/proxynet"
)

// ObjectOutcome classifies what came back for one measurement object.
type ObjectOutcome int

// Outcomes per object.
const (
	// ObjUnmodified: byte-identical to what the origin served.
	ObjUnmodified ObjectOutcome = iota
	// ObjModified: 200 response with different bytes.
	ObjModified
	// ObjBlocked: replaced by an error/block page (non-200).
	ObjBlocked
	// ObjEmpty: 200 with an empty body.
	ObjEmpty
	// ObjError: the proxied fetch failed.
	ObjError
)

// String names the outcome.
func (o ObjectOutcome) String() string {
	switch o {
	case ObjUnmodified:
		return "unmodified"
	case ObjModified:
		return "modified"
	case ObjBlocked:
		return "blocked"
	case ObjEmpty:
		return "empty"
	case ObjError:
		return "error"
	}
	return fmt.Sprintf("ObjectOutcome(%d)", int(o))
}

// ObjectResult is the per-object record.
type ObjectResult struct {
	Outcome ObjectOutcome `json:"outcome"`
	// BodyLen is the received length.
	BodyLen int `json:"body_len,omitempty"`
	// Body is retained only for modified HTML (signature extraction) and
	// block pages (filtering).
	Body []byte `json:"body,omitempty"`
	// ImageRatio is received/original size for the image object.
	ImageRatio float64 `json:"image_ratio,omitempty"`
}

// HTTPObservation is one measured node.
type HTTPObservation struct {
	ZID     string          `json:"zid"`
	NodeIP  netip.Addr      `json:"node_ip"`
	ASN     geo.ASN         `json:"asn"`
	Country geo.CountryCode `json:"country"`
	Objects [4]ObjectResult `json:"objects"`
}

// AnyModified reports whether any object came back tampered: modified,
// blocked or empty. A failed fetch (ObjError) is no evidence either way, as
// the §5.2 analysis has it too.
func (o *HTTPObservation) AnyModified() bool {
	for _, r := range o.Objects {
		if r.Outcome != ObjUnmodified && r.Outcome != ObjError {
			return true
		}
	}
	return false
}

// HTTPDataset is the HTTP experiment's output. Discarded counts the nodes
// the §5.1 sampling skipped: their AS already had its three samples and
// showed no modification.
type HTTPDataset = Dataset[*HTTPObservation]

// HTTPExperiment drives §5's methodology.
type HTTPExperiment struct {
	Client *proxynet.Client
	// Auth and Web are the world's authoritative and web servers. Nothing
	// reads the queries or requests for a session's names once the session
	// ends, so each is forgotten then: their logs hold O(in-flight
	// sessions) entries.
	Auth    *dnsserver.Authority
	Web     *origin.Server
	Geo     *geo.Registry
	Zone    string
	Weights map[geo.CountryCode]int
	Budget  *Budget
	Crawl   CrawlConfig
	Seed    uint64
	// PerASQuota is the initial sample per AS (zero means the paper's 3).
	// Setting it very high disables the sampling strategy (the exhaustive
	// ablation).
	PerASQuota int
}

const httpPrefix = "h-"

// Run executes the crawl. It reads the driver and never writes it: the
// defaults, the budget's registry and the AS sampling state are the
// crawl's own.
func (e *HTTPExperiment) Run(ctx context.Context) (*HTTPDataset, error) {
	quota := e.PerASQuota
	if quota <= 0 {
		quota = 3
	}
	m := e.Crawl.Metrics
	// A nil budget is the paper's 1 MB cap, and a budget without a registry
	// of its own reports into the crawl's.
	budget, charged := e.Budget, m
	if budget == nil {
		budget = NewBudget(0)
	}
	if budget.Metrics != nil {
		charged = budget.Metrics
	}
	// The AS sampling quota is inherently global — every shard consults it
	// before fully measuring a node — so it stays behind a mutex while the
	// dataset accumulation streams lock-free into per-shard sinks.
	var mu sync.Mutex
	asCount := make(map[geo.ASN]int)
	asFlagged := make(map[geo.ASN]bool)
	// skip is the bandwidth-minimizing strategy: an AS that already gave
	// quota clean samples is not fully measured again (§5.1).
	skip := func(asn geo.ASN) bool {
		mu.Lock()
		defer mu.Unlock()
		return asCount[asn] >= quota && !asFlagged[asn]
	}
	charge := func(zid string, n int) bool { return budget.charge(zid, n, charged) }

	return runCrawl(ctx, e.Crawl, e.Weights, e.Seed, crawlSpec[*HTTPObservation]{
		name: "http", stream: "crawl/http",
		measure: func(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (*HTTPObservation, outcome) {
			return e.measure(ctx, cr, cc, sess, skip, charge)
		},
		zid:              func(o *HTTPObservation) string { return o.ZID },
		violation:        (*HTTPObservation).AnyModified,
		violationCounter: "http_modified_total", violationDetail: "http_modified",
		onOK: func(_ int, o *HTTPObservation) {
			for _, res := range o.Objects {
				m.Labeled("http_object_outcomes").Inc(res.Outcome.String())
			}
			mu.Lock()
			asCount[o.ASN]++
			if o.AnyModified() {
				asFlagged[o.ASN] = true
			}
			mu.Unlock()
		},
		discardedCounter: "http_quota_skipped_total",
	})
}

// measure fetches the four objects through one node: skip is the crawl's
// AS sampling verdict, charge its §3.4 budget.
func (e *HTTPExperiment) measure(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string,
	skip func(geo.ASN) bool, charge func(zid string, n int) bool) (*HTTPObservation, outcome) {

	opts := proxynet.Options{Country: cc, Session: sess}
	obs := &HTTPObservation{}
	for i := range obs.Objects {
		obs.Objects[i].Outcome = ObjError
	}

	// fetch gets one object through the session's node and files its result
	// in obs. A non-OK outcome abandons the session; otherwise more says
	// whether to go on to the next object. It is a function of its own so
	// that the response buffer goes back to its pool on every way out.
	fetch := func(idx int, k content.Kind) (oc outcome, more bool) {
		// The authority keys its log by the dotted name; the host is that
		// name less its last byte.
		fqdn := httpPrefix + sess + "-" + strconv.Itoa(idx) + "." + e.Zone + "."
		host := fqdn[:len(fqdn)-1]
		defer e.Auth.Forget(fqdn)
		defer e.Web.Forget(host)
		resp, dbg, err := e.Client.Get(ctx, opts, "http://"+host+k.Path())
		defer resp.Release()
		if err != nil || dbg == nil || dbg.ZID == "" || dbg.Err != "" {
			// A transport fault mid-measurement sends the probe to the
			// error budget. Any other failure after the first object
			// leaves that object ObjError, which is no modification.
			if failure := classifyFailure(err, dbg); failure == outcomeFault || idx == 0 {
				return failure, false
			}
			return outcomeOK, true
		}
		if idx == 0 {
			zid, isNew := cr.observe(dbg.ZID)
			if !isNew {
				return outcomeDuplicate, false
			}
			obs.ZID = zid
			obs.NodeIP = dbg.NodeIP
			obs.ASN, obs.Country = locate(e.Geo, obs.NodeIP)
			if skip(obs.ASN) {
				return outcomeDiscarded, false
			}
		} else if dbg.ZID != obs.ZID {
			// Node switched mid-measurement; keep what we have.
			return outcomeOK, true
		}
		if !charge(obs.ZID, len(resp.Body)) {
			return outcomeOK, false
		}
		obs.Objects[int(k)] = classify(k, resp.StatusCode, resp.Body)
		return outcomeOK, true
	}
	for idx, k := range content.Kinds {
		oc, more := fetch(idx, k)
		if oc != outcomeOK {
			return nil, oc
		}
		if !more {
			break
		}
	}
	if obs.ZID == "" {
		return nil, outcomeFailed
	}
	return obs, outcomeOK
}

// classify compares a received object with the canonical one. The result
// does not alias body: the rare bodies it keeps are copies, so the caller
// may recycle the buffer it was handed.
func classify(k content.Kind, status int, body []byte) ObjectResult {
	orig := content.Object(k)
	r := ObjectResult{BodyLen: len(body)}
	switch {
	case status != 200:
		r.Outcome = ObjBlocked
		r.Body = bytes.Clone(body)
	case len(body) == 0:
		r.Outcome = ObjEmpty
	case bytes.Equal(body, orig):
		r.Outcome = ObjUnmodified
	default:
		r.Outcome = ObjModified
		if k == content.KindHTML {
			r.Body = bytes.Clone(body)
		}
		if k == content.KindImage {
			r.ImageRatio = content.CompressionRatio(orig, body)
		}
	}
	return r
}
