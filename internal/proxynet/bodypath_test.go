package proxynet

import (
	"context"
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/dnsserver"
)

// TestProxiedObjectFetchRecyclesItsBuffers: the 258 KB JavaScript object
// crosses origin → exit node → super proxy → client, by reference on these
// fault-free streams (TestProxiedObjectIsShared). A warmed GET allocates
// only its small change (requests, headers, pairs, log entries): about
// 3 KB, held to 16 KB here. It was 9 KB while the object was copied through
// grown rings into two pooled body buffers, and 3 MB when the object was
// regenerated, each ring regrown and each body reallocated per fetch.
func TestProxiedObjectFetchRecyclesItsBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	w := newTestWorld(t, 0)
	w.setRule("h", dnsserver.Always(webIP))
	want := sha256.Sum256(content.Object(content.KindJS))
	get := func() {
		resp, _, err := w.client.Get(context.Background(), Options{Country: "DE", Session: "7"},
			"http://h."+zone+content.KindJS.Path())
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || sha256.Sum256(resp.Body) != want {
			t.Fatalf("status %d, %d-byte body differs from the object", resp.StatusCode, len(resp.Body))
		}
		resp.Release()
	}
	// sync.Pool keeps a free list per P and empties them at a collection: a
	// goroutine migration or a GC mid-loop would charge a refill to this
	// test.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	get()
	get() // the second warm-up settles the session pin and the pools
	const gets = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	if perGet := (after.TotalAlloc - before.TotalAlloc) / gets; perGet > 16<<10 {
		t.Fatalf("a proxied GET of %s allocated %d bytes after warm-up; want at most 16 KB",
			content.KindJS.Path(), perGet)
	}
}
