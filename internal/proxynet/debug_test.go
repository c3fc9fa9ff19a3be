package proxynet

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/httpwire"
)

func TestDebugRoundTrip(t *testing.T) {
	resp := &httpwire.Response{}
	h := &resp.Header
	attachDebug(resp, "z1234567",
		netip.MustParseAddr("91.2.3.4"),
		[]Attempt{{ZID: "zdead1", Err: "peer_disconnected"}, {ZID: "zdead2", Err: "peer_connect_timeout"}},
		"")
	d := ParseDebug(h)
	if d.ZID != "z1234567" || d.NodeIP != netip.MustParseAddr("91.2.3.4") {
		t.Fatalf("parsed = %+v", d)
	}
	if len(d.Attempts) != 2 || d.Attempts[0].ZID != "zdead1" || d.Attempts[1].Err != "peer_connect_timeout" {
		t.Fatalf("attempts = %+v", d.Attempts)
	}
	if d.Err != "" || d.PeerNXDomain() {
		t.Fatalf("error state = %+v", d)
	}
}

func TestDebugErrorHeader(t *testing.T) {
	resp := &httpwire.Response{}
	h := &resp.Header
	attachDebug(resp, "z1", netip.Addr{}, nil, ErrDNSPeer)
	d := ParseDebug(h)
	if !d.PeerNXDomain() {
		t.Fatal("peer NXDOMAIN not detected")
	}
	if d.NodeIP.IsValid() {
		t.Fatal("invalid IP parsed as valid")
	}
}

func TestDebugParseGarbage(t *testing.T) {
	h := &httpwire.Header{}
	h.Set(TimelineHeader, "v1 zid= ip=notanip tried=:,x")
	d := ParseDebug(h)
	if d.NodeIP.IsValid() {
		t.Fatal("garbage IP accepted")
	}
	// Parsing must never panic and must produce an empty-but-usable Debug.
	h.Set(TimelineHeader, "")
	_ = ParseDebug(h)
}

// Property: encode/parse round-trips arbitrary zIDs and attempt chains.
func TestPropertyDebugRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		var sb strings.Builder
		for _, c := range s {
			if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
				sb.WriteRune(c)
			}
		}
		if sb.Len() == 0 {
			return "z0"
		}
		return sb.String()
	}
	f := func(zid string, tried []string) bool {
		zid = sanitize(zid)
		var attempts []Attempt
		for _, tr := range tried {
			attempts = append(attempts, Attempt{ZID: sanitize(tr), Err: "peer_connect_timeout"})
		}
		resp := &httpwire.Response{}
		h := &resp.Header
		attachDebug(resp, zid, netip.MustParseAddr("10.0.0.1"), attempts, "")
		d := ParseDebug(h)
		if d.ZID != zid || len(d.Attempts) != len(attempts) {
			return false
		}
		for i := range attempts {
			if d.Attempts[i] != attempts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolPropertyPickRespectsExclusionAndCountry(t *testing.T) {
	w := newTestWorld(t, 0)
	f := func(excludeMask uint8) bool {
		exclude := map[string]bool{}
		for i, n := range w.nodes {
			if excludeMask&(1<<uint(i%8)) != 0 {
				exclude[n.ZID] = true
			}
		}
		p, ok := w.pool.Pick("DE", exclude)
		if p == nil {
			// Only acceptable when everything is excluded.
			return len(exclude) == w.pool.Len()
		}
		return ok && !exclude[p.PeerID()] && p.PeerCountry() == "DE"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedProxyRequests(t *testing.T) {
	// The super proxy must survive garbage without crashing and answer
	// well-formed-but-invalid requests with errors.
	w := newTestWorld(t, 0)
	raw := func(payload string) {
		conn, err := w.fabric.Dial(t.Context(), clientIP, proxyIP, ProxyPort)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte(payload))
		buf := make([]byte, 256)
		conn.Read(buf) // whatever comes back (or EOF) is fine; no hang
	}
	raw("GARBAGE\r\n\r\n")
	raw("GET http://x HTTP/1.1\r\n\r\n")                          // no auth
	raw("PUT http://x/ HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc") // wrong method

	// Well-formed GET with bad target.
	resp, _, err := w.client.Get(t.Context(), Options{}, "http://"+zone+":9999/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 403 {
		t.Fatalf("bad-port status = %d", resp.StatusCode)
	}
}

func TestAllNodesOfflineNoPeers(t *testing.T) {
	w := newTestWorld(t, 0)
	w.setRule("d1", dnsserver.Always(webIP))
	for _, n := range w.nodes {
		n.SetOnline(false)
	}
	resp, dbg, err := w.client.Get(t.Context(), Options{}, "http://d1."+zone+"/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 || dbg.Err != ErrNoPeers {
		t.Fatalf("resp = %d %q", resp.StatusCode, dbg.Err)
	}
}
