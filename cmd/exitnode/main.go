// Command exitnode runs one exit-node agent: the end-user-machine half of
// the proxy service. It maintains persistent connections to the super
// proxy's agent gateway and performs DNS resolution and HTTP fetches
// locally — through whatever middleboxes its flags configure, which is how
// the real-network demos reproduce the paper's violations.
//
//	exitnode -zid znode0001 -country DE \
//	         -gateway 127.0.0.1:22226 -dns 127.0.0.1:5353 \
//	         [-dns-bind 127.0.0.3] [-hijack-landing 127.0.0.1:9090] \
//	         [-inject-sig msmdzbsyrw.org] [-mitm-issuer "Avast Web/Mail Shield Root"]
//
// -hijack-landing makes the node's resolver rewrite NXDOMAIN answers to the
// given landing server (ISP-style hijacking). -inject-sig appends an ad
// script to HTML responses (end-host adware). -mitm-issuer installs a TLS
// interceptor replacing certificate chains (AV-style SSL proxying).
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// clk is the daemon's timebase: exit nodes live on real networks, so the
// wall clock is injected explicitly.
var clk = simnet.Real{}

func main() {
	var (
		zid        = flag.String("zid", "znode0001", "persistent node identifier")
		country    = flag.String("country", "DE", "advertised ISO country code")
		gateway    = flag.String("gateway", "127.0.0.1:22226", "super proxy agent gateway")
		dns        = flag.String("dns", "127.0.0.1:5353", "the node's DNS resolver upstream (host:port)")
		dnsBind    = flag.String("dns-bind", "", "local address for the node's DNS queries")
		nodeIP     = flag.String("ip", "127.0.0.1", "the node's advertised IP")
		conns      = flag.Int("conns", 4, "parallel agent connections")
		hijackLand = flag.String("hijack-landing", "", "rewrite NXDOMAIN answers to this landing address (host[:port])")
		injectSig  = flag.String("inject-sig", "", "inject an ad script with this signature domain into HTML")
		mitmIssuer = flag.String("mitm-issuer", "", "replace TLS certificate chains under this issuer CN")
	)
	flag.Parse()

	logger := slog.New(trace.NewLogHandler(slog.NewTextHandler(os.Stderr, nil))).
		With("zid", *zid)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	dnsAP, err := netip.ParseAddrPort(*dns)
	if err != nil {
		fatal("bad -dns", "err", err)
	}
	addr, err := netip.ParseAddr(*nodeIP)
	if err != nil {
		fatal("bad -ip", "err", err)
	}

	var bind netip.Addr
	if *dnsBind != "" {
		if bind, err = netip.ParseAddr(*dnsBind); err != nil {
			fatal("bad -dns-bind", "err", err)
		}
	}
	resolver := dnsserver.NewUDPResolver(addr, dnsAP, bind)
	if *hijackLand != "" {
		landing, err := netip.ParseAddr(*hijackLand)
		if err != nil {
			fatal("bad -hijack-landing", "err", err)
		}
		resolver.NXLanding = landing
		logger.Info("NXDOMAIN hijacking enabled", "landing", landing.String())
	}

	path := &middlebox.Path{}
	if *injectSig != "" {
		path.HTTP = append(path.HTTP, &middlebox.HTMLInjector{
			Product: "flag adware", Signature: *injectSig, SignatureIsURL: true,
		})
		logger.Info("HTML injection enabled", "signature", *injectSig)
	}
	if *mitmIssuer != "" {
		store, _ := cert.NewOSRootStore(clk.Now())
		spec := middlebox.ProductSpec{Product: *mitmIssuer, IssuerCN: *mitmIssuer,
			Kind: "Anti-Virus/Security", ReuseKey: true, Invalid: middlebox.InvalidLaunder}
		path.TLS = append(path.TLS, spec.Build(clk.Now(), store).Instance(*zid, clk.Now))
		logger.Info("TLS interception enabled", "issuer", *mitmIssuer)
	}

	node := &proxynet.ExitNode{
		ZID:      *zid,
		Addr:     addr,
		Country:  geo.CountryCode(*country),
		Resolver: resolver,
		Path:     path,
		Net:      &proxynet.TCPDialer{Timeout: 5 * time.Second},
		Tracer:   trace.New(clk.Now, 0),
	}
	agent := &proxynet.Agent{Node: node, Gateway: *gateway, Conns: *conns}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	logger.Info("exit node connecting", "country", *country, "gateway", *gateway)
	if err := agent.Run(ctx); err != nil && ctx.Err() == nil {
		fatal("agent stopped", "err", err)
	}
}
