package proxynet

import (
	"context"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/simnet"
)

// TestSessionRepinsAfterPinnedNodeChurnsOffline is the deterministic core
// of the retry test below: pin a session, take exactly that node offline,
// and require the next request to succeed on a different node with the dead
// pin reported in the attempt chain.
func TestSessionRepinsAfterPinnedNodeChurnsOffline(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	opts := Options{Session: "pinned"}

	resp, dbg, err := w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("pinning request failed: %v (status %d)", err, resp.StatusCode)
	}
	first := dbg.ZID

	for _, n := range w.nodes {
		if n.ZID == first {
			n.SetOnline(false)
		}
	}

	resp, dbg, err = w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("request after pinned node went offline failed: %v", err)
	}
	if dbg.ZID == first {
		t.Fatalf("proxy kept serving through offline node %s", first)
	}
	found := false
	for _, a := range dbg.Attempts {
		if a.ZID == first && a.Err == "peer_disconnected" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead pin %s not reported in attempts: %+v", first, dbg.Attempts)
	}

	// The new pin sticks: a third request reuses the replacement node with
	// a clean attempt chain.
	repinned := dbg.ZID
	_, dbg, err = w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if dbg.ZID != repinned || len(dbg.Attempts) != 0 {
		t.Fatalf("session did not re-pin cleanly: zid=%s attempts=%+v", dbg.ZID, dbg.Attempts)
	}
}

func TestSessionsSurviveChurnViaRetry(t *testing.T) {
	// Under heavy churn, pinned sessions keep working: the proxy repins and
	// reports the dead node in the retry chain — the §2.3 behaviour the
	// methodology depends on to discard split measurements.
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	rng := simnet.NewRand(33)

	opts := Options{Session: "churny"}
	repins, ok := 0, 0
	for i := 0; i < 40; i++ {
		w.clock.Advance(5 * time.Second)
		// Each node's availability flips with probability 0.6 a round.
		for _, n := range w.nodes {
			if rng.Float64() < 0.6 {
				n.SetOnline(!n.Online())
			}
		}
		resp, dbg, err := w.client.Get(context.Background(), opts, "http://d1."+zone+"/")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == 200 {
			ok++
			if len(dbg.Attempts) > 0 {
				repins++
			}
		}
	}
	if ok < 35 {
		t.Fatalf("only %d/40 requests succeeded under churn", ok)
	}
	if repins == 0 {
		t.Fatal("no visible repinning despite heavy churn")
	}
}
