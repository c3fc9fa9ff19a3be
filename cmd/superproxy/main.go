// Command superproxy runs the Luminati-style super proxy over real TCP: a
// client-facing HTTP proxy port (absolute-form GET + CONNECT) and an agent
// gateway port where exit nodes (cmd/exitnode) register over persistent
// connections.
//
//	superproxy -listen 127.0.0.1:22225 -agents 127.0.0.1:22226 \
//	           -dns 127.0.0.1:5353 [-dns-bind 127.0.0.2] \
//	           [-http-port 8080] [-connect-port 8443] \
//	           [-metrics-addr 127.0.0.1:22227] [-pprof]
//
// -dns points at the authoritative server (cmd/authdns). -dns-bind pins the
// super proxy's resolver egress address; on loopback, distinct 127.x.y.z
// addresses let the authoritative server's d2 gate recognize the super
// proxy, exactly as the paper's methodology requires (§4.1).
//
// -metrics-addr mounts the statusz introspection surface: /statusz,
// /metrics (Prometheus text exposition; ?format=json for the snapshot),
// /traces (recent request spans, ?kind=/?zid= filters), and — with -pprof —
// net/http/pprof. Logging is structured (log/slog); records emitted while
// serving a traced request carry its trace and span IDs.
package main

import (
	"flag"
	"log/slog"
	"net"
	"net/netip"
	"os"
	"time"

	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/statusz"
	"github.com/tftproject/tft/internal/trace"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:22225", "client-facing proxy address")
		agents      = flag.String("agents", "127.0.0.1:22226", "agent gateway address")
		dns         = flag.String("dns", "127.0.0.1:5353", "authoritative DNS server (host:port)")
		dnsBind     = flag.String("dns-bind", "", "local address for the proxy's DNS queries (the d2 gate key)")
		httpPort    = flag.Uint("http-port", 80, "destination port allowed for proxied GETs")
		connectPort = flag.Uint("connect-port", 443, "destination port allowed for CONNECT")
		churn       = flag.Float64("churn", 0, "probability a selected peer transiently fails (retry demo)")
		metricsAddr = flag.String("metrics-addr", "", "serve the statusz introspection endpoints on this address")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr listener")
	)
	flag.Parse()

	logger := slog.New(trace.NewLogHandler(slog.NewTextHandler(os.Stderr, nil)))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	dnsAP, err := netip.ParseAddrPort(*dns)
	if err != nil {
		fatal("bad -dns", "err", err)
	}
	var egress netip.Addr
	if *dnsBind != "" {
		if egress, err = netip.ParseAddr(*dnsBind); err != nil {
			fatal("bad -dns-bind", "err", err)
		}
	}
	resolver := dnsserver.NewUDPResolver(geo.GoogleDNSAddr, dnsAP, egress)

	// A live deployment wants different churn ordering per restart, so
	// the pool seed deliberately comes from the wall clock.
	pool := proxynet.NewPool(simnet.NewRand(uint64(simnet.Real{}.Now().UnixNano())), *churn)
	selfIP, _ := netip.ParseAddr("127.0.0.1")
	sp := proxynet.NewSuperProxy(selfIP, pool, resolver, simnet.Real{})
	sp.HTTPPort = uint16(*httpPort)
	sp.ConnectPort = uint16(*connectPort)
	reg := metrics.NewRegistry()
	sp.Metrics = reg
	tracer := trace.New(simnet.Real{}.Now, 0)
	sp.Tracer = tracer
	sp.Log = logger

	if *metricsAddr != "" {
		sz := &statusz.Server{Metrics: reg, Tracer: tracer, Pprof: *pprofFlag, Log: logger}
		addr, err := sz.Start(*metricsAddr)
		if err != nil {
			fatal("statusz listener", "err", err)
		}
		logger.Info("statusz listening", "addr", addr.String(), "pprof", *pprofFlag)
	}

	gw := proxynet.NewGateway(pool)
	al, err := net.Listen("tcp", *agents)
	if err != nil {
		fatal("agent listener", "err", err)
	}
	go func() {
		if err := gw.Serve(al); err != nil {
			fatal("agent gateway", "err", err)
		}
	}()

	cl, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("client listener", "err", err)
	}
	logger.Info("super proxy up", "listen", *listen, "agents", *agents, "dns", *dns)
	go func() {
		//tftlint:ignore simclock -- periodic operator-stats ticker in a wall-clock daemon; no simulated run executes this binary
		for range time.Tick(10 * time.Second) {
			logger.Info("pool status", "peers", pool.Len())
		}
	}()
	if err := sp.Serve(cl); err != nil {
		fatal("proxy listener", "err", err)
	}
}
