// dnshijack demonstrates the §4 NXDOMAIN methodology over REAL sockets on
// loopback: an authoritative UDP DNS server with the d1/d2 gate, a
// measurement web server and an ISP "search assist" landing page over TCP,
// a super proxy with its agent gateway, and two exit-node agents — one
// honest, one behind a hijacking resolver.
//
// Distinct 127.x.y.z source addresses stand in for the distinct resolver
// egress IPs the real methodology keys on.
//
//	go run ./examples/dnshijack
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"strings"
	"time"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
)

const zone = "probe.tft-example.net"

var (
	loop      = netip.MustParseAddr("127.0.0.1")
	superSrc  = netip.MustParseAddr("127.0.0.2") // super proxy resolver egress
	honestSrc = netip.MustParseAddr("127.0.0.3") // honest node's resolver egress
	hijackSrc = netip.MustParseAddr("127.0.0.4") // hijacking resolver egress
)

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func listen() (net.Listener, uint16) {
	l := must(net.Listen("tcp", "127.0.0.1:0"))
	ap := must(netip.ParseAddrPort(l.Addr().String()))
	return l, ap.Port()
}

func main() {
	// Authoritative DNS over UDP with the d1/d2 gate keyed on superSrc.
	auth := dnsserver.NewAuthority(zone, simnet.Real{})
	pc := must(net.ListenPacket("udp", "127.0.0.1:0"))
	go dnsserver.ServeUDP(pc, auth.Handler())
	dnsAP := must(netip.ParseAddrPort(pc.LocalAddr().String()))
	fmt.Printf("authoritative DNS on %s (gate source: %s)\n", pc.LocalAddr(), superSrc)

	// Measurement web server and the ISP landing page over TCP.
	web := origin.NewServer(simnet.Real{})
	wl, webPort := listen()
	go proxynet.ServeListener(wl, web.ConnHandler())
	landing := middlebox.LandingSpec{
		Operator:        "LoopTel",
		RedirectURL:     "http://searchassist.looptel.example/results",
		SharedAppliance: true, AdCount: 2,
	}.Render()
	ll, landingPort := listen()
	go proxynet.ServeListener(ll, origin.StaticPage(landing, "text/html"))
	fmt.Printf("web server on :%d, landing page on :%d\n", webPort, landingPort)

	auth.SetFallback(core.ProbeRules(loop, superSrc))

	// Super proxy with agent gateway; its resolver queries from superSrc.
	spResolver := dnsserver.NewUDPResolver(geo.GoogleDNSAddr, dnsAP, superSrc)
	pool := proxynet.NewPool(simnet.NewRand(1), 0)
	sp := proxynet.NewSuperProxy(loop, pool, spResolver, simnet.Real{})
	sp.HTTPPort = webPort
	cl, _ := listen()
	go sp.Serve(cl)
	gw := proxynet.NewGateway(pool)
	al, _ := listen()
	go gw.Serve(al)

	// Two exit-node agents: honest and hijacking.
	startAgent := func(zid string, egress, landing netip.Addr) {
		resolver := dnsserver.NewUDPResolver(egress, dnsAP, egress)
		resolver.NXLanding = landing
		dialer := &proxynet.TCPDialer{Timeout: 2 * time.Second}
		if landing.IsValid() {
			dialer.MapAddr = func(dst netip.Addr, port uint16) string {
				// NXDOMAIN answers point at the landing host; route the
				// node's port-80-equivalent fetch there.
				if port == webPort && dst == loop {
					return fmt.Sprintf("127.0.0.1:%d", landingPort)
				}
				return fmt.Sprintf("%s:%d", dst, port)
			}
		}
		node := &proxynet.ExitNode{
			ZID: zid, Addr: loop, Country: "DE", Resolver: resolver, Net: dialer,
		}
		go (&proxynet.Agent{Node: node, Gateway: al.Addr().String(), Conns: 2}).Run(context.Background())
	}
	startAgent("zhonest01", honestSrc, netip.Addr{})
	startAgent("zhijack01", hijackSrc, loop)

	for pool.Len() < 2 {
		//tftlint:ignore simclock -- settle poll while real agents register over real sockets
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("exit nodes registered: %v\n\n", gw.Peers())

	// The measurement client runs the d1/d2 probe against each node.
	client := &proxynet.Client{
		Net: &proxynet.TCPDialer{
			MapAddr: func(netip.Addr, uint16) string { return cl.Addr().String() },
			Timeout: 2 * time.Second},
		Src: loop, Proxy: loop, User: "lum-customer-demo", Password: "pw",
	}
	for i, zid := range []string{"zhonest01", "zhijack01"} {
		// Pin the session to the node we want by retrying until it serves.
		sess := fmt.Sprintf("demo%d", i)
		opts := proxynet.Options{Session: sess, RemoteDNS: true}
		var dbg *proxynet.Debug
		for try := 0; try < 50; try++ {
			_, d, err := client.Get(context.Background(), opts,
				fmt.Sprintf("http://d1-%s-%d.%s:%d/", sess, try, zone, webPort))
			if err != nil {
				log.Fatal(err)
			}
			dbg = d
			if d.ZID == zid {
				break
			}
			opts.Session = fmt.Sprintf("demo%d-%d", i, try)
		}
		if dbg.ZID != zid {
			log.Fatalf("could not land on %s", zid)
		}
		resp, d2dbg, err := client.Get(context.Background(), opts,
			fmt.Sprintf("http://d2-%s.%s:%d/", opts.Session, zone, webPort))
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case d2dbg.PeerNXDomain():
			fmt.Printf("node %s: NXDOMAIN passed through untouched -> NOT hijacked\n", zid)
		case resp.StatusCode == 200:
			fmt.Printf("node %s: NXDOMAIN replaced with %d bytes of content -> HIJACKED\n", zid, len(resp.Body))
			if strings.Contains(string(resp.Body), middlebox.SharedRedirectJS) {
				fmt.Println("   landing page carries the shared redirect-appliance JavaScript (§4.3.1)")
			}
		default:
			fmt.Printf("node %s: unexpected outcome %d (%s)\n", zid, resp.StatusCode, d2dbg.Err)
		}
	}
}
