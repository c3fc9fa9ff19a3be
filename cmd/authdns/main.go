// Command authdns runs the measurement team's authoritative DNS server over
// UDP, implementing the d1/d2 gate of §4.1 with the crawls' own rules
// (core.ProbeRules): d1-*, h-* and u-* names always resolve to the web
// server; d2-* names resolve only for queries arriving from the super
// proxy's source address, and for nobody without -super-src; everything
// else under the zone is NXDOMAIN.
//
//	authdns -listen 127.0.0.1:5353 -zone probe.tft-example.net \
//	        -web 127.0.0.1 [-super-src 127.0.0.2]
//
// -super-src is the source address the super proxy's resolver queries from
// (its -dns-bind); on loopback, distinct 127.x.y.z addresses make the gate
// work without address spoofing.
package main

import (
	"flag"
	"log/slog"
	"net"
	"net/netip"
	"os"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:5353", "UDP listen address")
		zone     = flag.String("zone", "probe.tft-example.net", "authoritative zone")
		web      = flag.String("web", "127.0.0.1", "web server address for answered names")
		superSrc = flag.String("super-src", "", "super proxy resolver source address (the d2 gate)")
		logQs    = flag.Bool("log", true, "log every query")
	)
	flag.Parse()

	logger := slog.New(trace.NewLogHandler(slog.NewTextHandler(os.Stderr, nil)))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	webIP, err := netip.ParseAddr(*web)
	if err != nil {
		fatal("bad -web", "err", err)
	}
	var superIP netip.Addr
	if *superSrc != "" {
		superIP, err = netip.ParseAddr(*superSrc)
		if err != nil {
			fatal("bad -super-src", "err", err)
		}
	}

	auth := dnsserver.NewAuthority(*zone, simnet.Real{})
	auth.SetFallback(core.ProbeRules(webIP, superIP))

	pc, err := net.ListenPacket("udp", *listen)
	if err != nil {
		fatal("udp listener", "err", err)
	}
	logger.Info("authoritative server up", "zone", *zone, "listen", *listen,
		"web", *web, "super_gate", *superSrc)
	handler := auth.Handler()
	wrapped := handler
	if *logQs {
		wrapped = func(src netip.Addr, query []byte) []byte {
			resp := handler(src, query)
			logger.Info("query", "src", src.String(), "query_bytes", len(query),
				"resp_bytes", len(resp))
			return resp
		}
	}
	if err := dnsserver.ServeUDP(pc, wrapped); err != nil {
		fatal("dns server stopped", "err", err)
	}
}
