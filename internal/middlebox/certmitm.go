package middlebox

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/tftproject/tft/internal/cert"
)

// InvalidCertPolicy selects what a TLS proxy does when the origin's
// certificate is itself invalid — the behavioural split §6.2 documents.
type InvalidCertPolicy int

// The three observed policies.
const (
	// InvalidSkip leaves invalid-cert sites alone (OpenDNS: "they do not
	// replace certificates that were originally invalid").
	InvalidSkip InvalidCertPolicy = iota
	// InvalidLaunder replaces the invalid certificate with a spoofed one
	// signed like every valid one — the browser stops warning. Cyberoam,
	// ESET, Kaspersky, McAfee, and Fortigate do this, "potentially exposing
	// users to security vulnerabilities like phishing attacks."
	InvalidLaunder
	// InvalidDistinctIssuer replaces the certificate but under a separate
	// "untrusted" issuer so clients can still tell (Avast, BitDefender,
	// Dr. Web).
	InvalidDistinctIssuer
)

// CertMITM is a TLS-intercepting product instance on one exit node: an AV
// engine, a content filter, or malware. The product's root CA is shared
// across every node running it; the key material of spoofed leaves is
// per-node (and per-site only for Avast, which §6.2 singles out as the one
// product not reusing keys).
type CertMITM struct {
	// Product is the ground-truth label ("Avast", "OpenDNS", ...).
	Product string
	// Root signs spoofed certificates. Its Subject.CommonName is the Issuer
	// name Table 8 groups by.
	Root *cert.CA
	// UntrustedRoot signs replacements for invalid-cert sites under
	// InvalidDistinctIssuer policy.
	UntrustedRoot *cert.CA
	// NodeSeed individualizes per-node key material.
	NodeSeed string
	// ReuseKey: one key pair for every spoofed certificate on this node
	// (all products except Avast).
	ReuseKey bool
	// Invalid selects the invalid-certificate policy.
	Invalid InvalidCertPolicy
	// Hosts, when non-nil, restricts interception to hosts it returns true
	// for (OpenDNS block lists). Nil intercepts everything.
	Hosts func(host string) bool
	// CopyFields mimics Cloudguard malware: the spoofed certificate copies
	// the original's validity window and organization to look legitimate.
	CopyFields bool
	// Trust is the product's own validity judgement of origin chains,
	// usually the public root store.
	Trust *cert.Store
	// Now supplies the current (virtual) time.
	Now func() time.Time

	serial atomic.Uint64
}

// InterceptChain returns the chain the product puts in place of chain, the
// origin's for serverName, or nil when it leaves the chain alone (selective
// MITM).
func (m *CertMITM) InterceptChain(serverName string, chain []*cert.Certificate) []*cert.Certificate {
	if len(chain) == 0 {
		return nil
	}
	if m.Hosts != nil && !m.Hosts(serverName) {
		return nil
	}
	now := m.Now()
	origValid := m.Trust.Verify(serverName, chain, now) == nil

	signer := m.Root
	if !origValid {
		switch m.Invalid {
		case InvalidSkip:
			return nil
		case InvalidDistinctIssuer:
			if m.UntrustedRoot != nil {
				signer = m.UntrustedRoot
			}
		}
	}

	keySeed := m.Product + "/" + m.NodeSeed
	if !m.ReuseKey {
		keySeed = fmt.Sprintf("%s/%s/%d", keySeed, serverName, m.serial.Add(1))
	}
	tmpl := cert.Template{
		Subject:   cert.Name{CommonName: serverName, Organization: m.Product + " on-the-fly"},
		NotBefore: now.Add(-time.Hour),
		NotAfter:  now.Add(30 * 24 * time.Hour),
		KeySeed:   keySeed,
	}
	if m.CopyFields {
		orig := chain[0]
		tmpl.Subject = orig.Subject
		tmpl.DNSNames = orig.DNSNames
		tmpl.NotBefore = orig.NotBefore
		tmpl.NotAfter = orig.NotAfter
	}
	leaf := signer.Issue(tmpl)
	return []*cert.Certificate{leaf, signer.Cert}
}

// ProductSpec describes a TLS-intercepting product for the world builder:
// everything shared across nodes running it.
type ProductSpec struct {
	// Product is the ground-truth product name.
	Product string
	// IssuerCN is the Issuer Common Name Table 8 reports.
	IssuerCN string
	// Kind is the paper's classification ("Anti-Virus/Security",
	// "Content filter", "Malware", "N/A").
	Kind string
	// ReuseKey, Invalid, CopyFields as in CertMITM.
	ReuseKey   bool
	Invalid    InvalidCertPolicy
	CopyFields bool
	// BlockList, when non-empty, restricts interception to these hosts.
	BlockList []string
}

// Build instantiates the shared CAs for the product. Call once per world;
// per-node CertMITMs come from Instance.
func (ps ProductSpec) Build(epoch time.Time, trust *cert.Store) *ProductCAs {
	life := 10 * 365 * 24 * time.Hour
	root := cert.NewRootCA(
		cert.Name{CommonName: ps.IssuerCN, Organization: ps.Product},
		"mitm-root/"+ps.Product, epoch.Add(-365*24*time.Hour), life)
	var untrusted *cert.CA
	if ps.Invalid == InvalidDistinctIssuer {
		untrusted = cert.NewRootCA(
			cert.Name{CommonName: ps.IssuerCN + " (untrusted)", Organization: ps.Product},
			"mitm-untrusted/"+ps.Product, epoch.Add(-365*24*time.Hour), life)
	}
	var hosts func(string) bool
	if len(ps.BlockList) > 0 {
		set := make(map[string]bool, len(ps.BlockList))
		for _, h := range ps.BlockList {
			set[h] = true
		}
		hosts = func(h string) bool { return set[h] }
	}
	return &ProductCAs{spec: ps, root: root, untrusted: untrusted, hosts: hosts, trust: trust}
}

// ProductCAs carries a product's shared signing material.
type ProductCAs struct {
	spec      ProductSpec
	root      *cert.CA
	untrusted *cert.CA
	hosts     func(string) bool
	trust     *cert.Store
}

// Instance creates the per-node interceptor.
func (pc *ProductCAs) Instance(nodeSeed string, now func() time.Time) *CertMITM {
	return &CertMITM{
		Product:       pc.spec.Product,
		Root:          pc.root,
		UntrustedRoot: pc.untrusted,
		NodeSeed:      nodeSeed,
		ReuseKey:      pc.spec.ReuseKey,
		Invalid:       pc.spec.Invalid,
		Hosts:         pc.hosts,
		CopyFields:    pc.spec.CopyFields,
		Trust:         pc.trust,
		Now:           now,
	}
}
