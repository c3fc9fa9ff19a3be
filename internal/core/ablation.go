package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
)

// ObjectSizeAblation reproduces the §5.1 observation that motivated the
// paper's object sizes: when fetched objects are smaller than ~1 KB, much
// less content modification is observed, because real-world injectors skip
// tiny responses. It fetches a sub-1 KB page and the 9 KB HTML object
// through the same nodes and compares modification rates.
type ObjectSizeAblation struct {
	Client  *proxynet.Client
	Zone    string
	Weights map[geo.CountryCode]int
	Seed    uint64
	// Samples is how many nodes to probe.
	Samples int
}

// ObjectSizeResult reports the two modification rates.
type ObjectSizeResult struct {
	Nodes        int
	TinyModified int
	FullModified int
}

// TinyRate is the sub-1KB modification rate.
func (r ObjectSizeResult) TinyRate() float64 { return rate(r.TinyModified, r.Nodes) }

// FullRate is the 9KB modification rate.
func (r ObjectSizeResult) FullRate() float64 { return rate(r.FullModified, r.Nodes) }

// Run probes Samples nodes. The HTTP experiment's fallback rules must be
// installed (h-* names resolve to the web server).
func (e *ObjectSizeAblation) Run(ctx context.Context) (ObjectSizeResult, error) {
	var res ObjectSizeResult
	var mu sync.Mutex
	rng := simnet.SubRand(e.Seed, "ablation/objsize")
	cr := newCrawler(CrawlConfig{Workers: 8, MaxSessions: e.Samples * 3}, e.Weights, rng)
	tiny := origin.IndexBody()
	full := content.Object(content.KindHTML)

	cr.runWorkers(ctx, func(_ int, cc geo.CountryCode, sess string, _ bool) {
		mu.Lock()
		done := res.Nodes >= e.Samples
		mu.Unlock()
		if done {
			return
		}
		host := fmt.Sprintf("%sablate-%s.%s", httpPrefix, sess, e.Zone)
		opts := proxynet.Options{Country: cc, Session: sess}
		tinyResp, dbg, err := e.Client.Get(ctx, opts, "http://"+host+"/")
		if err != nil || dbg == nil || dbg.Err != "" {
			return
		}
		if _, isNew := cr.observe(dbg.ZID); !isNew {
			return
		}
		fullResp, dbg2, err := e.Client.Get(ctx, opts, "http://"+host+"/object.html")
		if err != nil || dbg2 == nil || dbg2.Err != "" || dbg2.ZID != dbg.ZID {
			return
		}
		tinyMod := tinyResp.StatusCode != 200 || !bytes.Equal(tinyResp.Body, tiny)
		fullMod := fullResp.StatusCode != 200 || !bytes.Equal(fullResp.Body, full)
		mu.Lock()
		res.Nodes++
		if tinyMod {
			res.TinyModified++
		}
		if fullMod {
			res.FullModified++
		}
		mu.Unlock()
	})
	return res, ctx.Err()
}
