package tft

import (
	"context"
	"crypto/sha256"
	"testing"
	_ "unsafe" // for go:linkname

	"github.com/tftproject/tft/internal/content"
)

// releasePoison is internal/httpwire's test hook, reached by linkname so
// that the package need not export a switch only tests may touch: while it
// is set, Response.Release overwrites the buffer with 0xDB before pooling
// it, so a body read after its release shows up as a changed hash at once
// instead of whenever the buffer's next user happens to fill it.
//
//go:linkname releasePoison github.com/tftproject/tft/internal/httpwire.poisonOnRelease
var releasePoison bool

// queryPoison is internal/dnsserver's hook of the same kind: while it is
// set, a resolver overwrites its query datagram with 0xDB as soon as the
// exchange returns, so a DNS handler that kept any of the query shows up as
// a changed hash.
//
//go:linkname queryPoison github.com/tftproject/tft/internal/dnsserver.poisonQueryOnPut
var queryPoison bool

// poisonRecycledBuffers turns both hooks on until the test ends. The crawls
// it covers start after the writes and are done before the cleanup, so the
// plain bools are ordered with every reader. The cleanup also checks that
// every canonical §5.1 object still hashes as it did at the start: origin,
// exit node, super proxy and client all hold content.Object's own bytes on a
// fault-free hop, so a write into any body that crossed by reference shows
// up there.
func poisonRecycledBuffers(t *testing.T) {
	t.Helper()
	releasePoison, queryPoison = true, true
	before := objectDigests()
	t.Cleanup(func() {
		releasePoison, queryPoison = false, false
		for i, d := range objectDigests() {
			if d != before[i] {
				t.Errorf("the canonical %s object changed: a holder wrote into a shared body", content.Kinds[i].Path())
			}
		}
	})
}

// objectDigests hashes every canonical object, in content.Kinds order.
func objectDigests() [][sha256.Size]byte {
	d := make([][sha256.Size]byte, len(content.Kinds))
	for i, k := range content.Kinds {
		d[i] = sha256.Sum256(content.Object(k))
	}
	return d
}

// TestLossyHTTPCrawlLeavesObjectsIntact: under lossy-links every link may
// corrupt, truncate or reset, so some hops copy the objects and others hand
// them over by reference. The crawl must still leave every canonical object
// as it was, which poisonRecycledBuffers checks when the test ends.
func TestLossyHTTPCrawlLeavesObjectsIntact(t *testing.T) {
	poisonRecycledBuffers(t)
	run, err := RunExperiment(context.Background(), "http", chaosOpts("lossy-links"))
	if err != nil {
		t.Fatal(err)
	}
	if run.Manifest().Faults == 0 {
		t.Fatal("lossy-links injected no client-visible faults; the check proved nothing")
	}
}
