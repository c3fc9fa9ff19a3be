// httpsmitm demonstrates the §6 certificate-replacement methodology: exit
// nodes running AV-style TLS proxies, OpenDNS-style content filters, and
// Cloudguard-style malware replace certificate chains inside CONNECT
// tunnels; the measurement client detects each replacement by validating
// against a clean OS root store and exact-matching its own invalid sites,
// then prints the per-issuer behavioural fingerprints (key reuse,
// invalid-certificate laundering).
//
//	go run ./examples/httpsmitm
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"sort"
	"time"

	"github.com/tftproject/tft/internal/cert"
	"github.com/tftproject/tft/internal/dnsserver"
	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/middlebox"
	"github.com/tftproject/tft/internal/origin"
	"github.com/tftproject/tft/internal/proxynet"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/tlssim"
)

var epoch = time.Date(2016, 4, 14, 0, 0, 0, 0, time.UTC)

// wrapNet wraps the network the measurement client dials through; the
// example's test uses it to count how often each tunnel is closed.
var wrapNet = func(d proxynet.Dialer) proxynet.Dialer { return d }

func main() {
	fabric := simnet.NewFabric()
	clock := simnet.NewVirtual(epoch)
	trust, cas := cert.NewOSRootStore(epoch)

	// Three sites: a valid one, a self-signed one, an expired one.
	siteIPs := map[string]netip.Addr{
		"www.bank.example":   netip.MustParseAddr("198.51.100.10"),
		"selfsigned.example": netip.MustParseAddr("198.51.100.11"),
		"expired.example":    netip.MustParseAddr("198.51.100.12"),
	}
	valid := cas[0].Issue(cert.Template{Subject: cert.Name{CommonName: "www.bank.example"},
		NotBefore: epoch.Add(-time.Hour), NotAfter: epoch.Add(365 * 24 * time.Hour), KeySeed: "bank"})
	self := cert.NewRootCA(cert.Name{CommonName: "selfsigned.example"}, "ss", epoch.Add(-time.Hour), 1000*time.Hour)
	expired := cas[0].Issue(cert.Template{Subject: cert.Name{CommonName: "expired.example"},
		NotBefore: epoch.Add(-2 * 365 * 24 * time.Hour), NotAfter: epoch.Add(-24 * time.Hour), KeySeed: "old"})
	chains := map[string][]*cert.Certificate{
		"www.bank.example":   {valid, cas[0].Cert},
		"selfsigned.example": {self.Cert},
		"expired.example":    {expired, cas[0].Cert},
	}
	for host, ip := range siteIPs {
		host := host
		fabric.HandleTCP(ip, 443, origin.TLSSite(func(sni string) []*cert.Certificate { return chains[host] }))
	}

	// Exit nodes: clean, Avast-style, Kaspersky-style (launders invalid
	// certs!), and Cloudguard-style malware.
	products := []middlebox.ProductSpec{
		{Product: "Avast", IssuerCN: "Avast Web/Mail Shield Root", Kind: "Anti-Virus/Security",
			ReuseKey: false, Invalid: middlebox.InvalidDistinctIssuer},
		{Product: "Kaspersky", IssuerCN: "Kaspersky Anti-Virus Personal Root", Kind: "Anti-Virus/Security",
			ReuseKey: true, Invalid: middlebox.InvalidLaunder},
		{Product: "Cloudguard.me", IssuerCN: "Cloudguard.me", Kind: "Malware",
			ReuseKey: true, Invalid: middlebox.InvalidLaunder, CopyFields: true},
	}

	upstream := func(string) (netip.Addr, bool) { return netip.Addr{}, false }
	pool := proxynet.NewPool(simnet.NewRand(7), 0)
	addNode := func(zid string, path *middlebox.Path) {
		node := &proxynet.ExitNode{
			ZID: zid, Addr: netip.MustParseAddr("91.7.1." + fmt.Sprint(pool.Len()+10)),
			Country:  "DE",
			Resolver: dnsserver.NewResolver(netip.MustParseAddr("91.7.0.53"), fabric, upstream),
			Path:     path, Net: fabric,
		}
		if err := pool.Add(node); err != nil {
			log.Fatal(err)
		}
	}
	addNode("zclean001", nil)
	for i, ps := range products {
		pcs := ps.Build(epoch, trust)
		addNode(fmt.Sprintf("zmitm%04d", i),
			&middlebox.Path{TLS: []*middlebox.CertMITM{pcs.Instance(fmt.Sprintf("node%d", i), clock.Now)}})
	}

	proxyIP := netip.MustParseAddr("203.0.113.22")
	spResolver := &dnsserver.Resolver{Addr: geo.GoogleDNSAddr, Net: fabric, Upstream: upstream}
	sp := proxynet.NewSuperProxy(proxyIP, pool, spResolver, clock)
	fabric.HandleTCP(proxyIP, proxynet.ProxyPort, sp.ConnHandler())
	client := &proxynet.Client{Net: wrapNet(fabric), Src: netip.MustParseAddr("203.0.113.1"),
		Proxy: proxyIP, User: "lum-customer-demo", Password: "pw"}

	// Probe every node against every site. Luminati cannot be asked for a
	// specific node, so keep opening fresh sessions until each zID has
	// served once — exactly the paper's crawl pattern.
	fmt.Println("node        site                  verdict")
	fmt.Println("--------------------------------------------------------------------")
	seen := map[string]bool{}
	for attempt := 0; len(seen) < pool.Len() && attempt < 200; attempt++ {
		sess := fmt.Sprintf("s%d", attempt)
		opts := proxynet.Options{Session: sess}
		// Peek which node this session lands on.
		peek, dbg0, err := client.Connect(context.Background(), opts,
			siteIPs["www.bank.example"].String()+":443")
		if err != nil {
			log.Fatal(err)
		}
		peek.Close()
		if seen[dbg0.ZID] {
			continue
		}
		seen[dbg0.ZID] = true
		var zid string
		keys := map[cert.KeyID]int{}
		// Probe sites in sorted order: ranging the map directly would print
		// the verdict lines in nondeterministic order (maporder).
		hosts := make([]string, 0, len(siteIPs))
		for host := range siteIPs {
			hosts = append(hosts, host)
		}
		sort.Strings(hosts)
		for _, host := range hosts {
			ip := siteIPs[host]
			conn, dbg, err := client.Connect(context.Background(), opts, ip.String()+":443")
			if err != nil {
				log.Fatal(err)
			}
			zid = dbg.ZID
			chain, err := tlssim.CollectChain(conn, host)
			conn.Close()
			if err != nil {
				log.Fatal(err)
			}
			leaf := chain[0]
			keys[leaf.PublicKey]++
			origLeaf := chains[host][0]
			replaced := leaf.Fingerprint() != origLeaf.Fingerprint()
			validNow := trust.Verify(host, chain, clock.Now()) == nil
			verdict := "genuine chain"
			if replaced {
				verdict = fmt.Sprintf("REPLACED (issuer %q)", leaf.Issuer.CommonName)
				if validNow {
					verdict += " [chain verifies: trusted-root laundering]"
				}
				origValid := trust.Verify(host, chains[host], clock.Now()) == nil
				if !origValid && leaf.Issuer == chain[len(chain)-1].Subject {
					verdict += " [invalid original replaced]"
				}
			}
			fmt.Printf("%-11s %-21s %s\n", zid, host, verdict)
		}
		if len(keys) == 1 && pool.Len() > 0 {
			var k cert.KeyID
			for key := range keys {
				k = key
			}
			fmt.Printf("%-11s %-21s same public key %s on every spoofed cert (§6.2 key reuse)\n", zid, "(all sites)", k.String()[:12])
		}
		fmt.Println()
	}
}
