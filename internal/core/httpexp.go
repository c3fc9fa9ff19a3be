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

// AnyModified reports whether any object came back tampered.
func (o *HTTPObservation) AnyModified() bool {
	for _, r := range o.Objects {
		if r.Outcome != ObjUnmodified {
			return true
		}
	}
	return false
}

// HTTPDataset is the HTTP experiment's output.
type HTTPDataset struct {
	Dataset[*HTTPObservation]
	// SkippedQuota is Discarded under its §5.1 name: nodes left unmeasured
	// because their AS already had its three samples and showed no
	// modification.
	SkippedQuota int
}

// HTTPExperiment drives §5's methodology.
type HTTPExperiment struct {
	Client *proxynet.Client
	// Auth is the world's authoritative server. Nothing reads the queries
	// for a session's names once the session ends, so each is forgotten
	// then: its log holds O(in-flight sessions) entries.
	Auth    *dnsserver.Authority
	Geo     *geo.Registry
	Zone    string
	Weights map[geo.CountryCode]int
	Budget  *Budget
	Crawl   CrawlConfig
	Seed    uint64
	// PerASQuota is the initial sample per AS (paper: 3). Setting it very
	// high disables the sampling strategy (the exhaustive ablation).
	PerASQuota int
}

const httpPrefix = "h-"

// Run executes the crawl.
func (e *HTTPExperiment) Run(ctx context.Context) (*HTTPDataset, error) {
	if e.PerASQuota <= 0 {
		e.PerASQuota = 3
	}
	m := e.Crawl.Metrics
	e.Budget = e.Budget.orDefault(m)
	// The AS sampling quota is inherently global — every shard consults it
	// before fully measuring a node — so it stays behind a mutex while the
	// dataset accumulation streams lock-free into per-shard sinks.
	var mu sync.Mutex
	asCount := make(map[geo.ASN]int)
	asFlagged := make(map[geo.ASN]bool)

	crawl, err := runCrawl(ctx, e.Crawl, e.Weights, e.Seed, crawlSpec[*HTTPObservation]{
		name: "http", stream: "crawl/http",
		measure: func(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string) (*HTTPObservation, outcome) {
			return e.measure(ctx, cr, cc, sess, &mu, asCount, asFlagged)
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
	return &HTTPDataset{Dataset: *crawl, SkippedQuota: crawl.Discarded}, err
}

// measure fetches the four objects through one node.
func (e *HTTPExperiment) measure(ctx context.Context, cr *crawler, cc geo.CountryCode, sess string,
	mu *sync.Mutex, asCount map[geo.ASN]int, asFlagged map[geo.ASN]bool) (*HTTPObservation, outcome) {

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
		resp, dbg, err := e.Client.Get(ctx, opts, "http://"+host+k.Path())
		defer resp.Release()
		if err != nil || dbg == nil || dbg.ZID == "" || dbg.Err != "" {
			// A transport fault mid-measurement would leave ObjError
			// objects that AnyModified reads as tampering; exclude the
			// probe into the error budget rather than misclassify it.
			if failure := classifyFailure(err, dbg); failure == outcomeFault || idx == 0 {
				return failure, false
			}
			return outcomeOK, true
		}
		if idx == 0 {
			if !cr.observe(dbg.ZID) {
				return outcomeDuplicate, false
			}
			obs.ZID = dbg.ZID
			obs.NodeIP = dbg.NodeIP
			obs.ASN, obs.Country = locate(e.Geo, obs.NodeIP)
			// The bandwidth-minimizing strategy: skip fully measuring
			// ASes that already gave 3 clean samples (§5.1).
			mu.Lock()
			skip := asCount[obs.ASN] >= e.PerASQuota && !asFlagged[obs.ASN]
			mu.Unlock()
			if skip {
				return outcomeDiscarded, false
			}
		} else if dbg.ZID != obs.ZID {
			// Node switched mid-measurement; keep what we have.
			return outcomeOK, true
		}
		if !e.Budget.Charge(obs.ZID, len(resp.Body)) {
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
