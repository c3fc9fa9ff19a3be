package core

import (
	"net/netip"
	"testing"
)

// TestProbeRules holds the §4.1 answer policy to its table: every prefix,
// the d2 gate from the super proxy's egress and from anyone else, a zero
// gate that answers nobody, and the names that get no rule at all.
func TestProbeRules(t *testing.T) {
	web := netip.MustParseAddr("198.18.0.10")
	gate := netip.MustParseAddr("198.18.0.2")
	other := netip.MustParseAddr("91.5.0.53")
	var zero netip.Addr
	for _, tc := range []struct {
		name     string
		gate     netip.Addr
		qname    string
		src      netip.Addr
		noRule   bool
		answered bool
	}{
		{name: "d1 from anyone", gate: gate, qname: "d1-s7.probe.tft-example.net.", src: other, answered: true},
		{name: "d1 from the gate", gate: gate, qname: "d1-s7.probe.tft-example.net.", src: gate, answered: true},
		{name: "h from anyone", gate: gate, qname: "h-s7-0.probe.tft-example.net.", src: other, answered: true},
		{name: "u from anyone", gate: gate, qname: "u-s7.probe.tft-example.net.", src: other, answered: true},
		{name: "d2 from the gate", gate: gate, qname: "d2-s7.probe.tft-example.net.", src: gate, answered: true},
		{name: "d2 from anyone else", gate: gate, qname: "d2-s7.probe.tft-example.net.", src: other},
		{name: "d2 from the zero address", gate: gate, qname: "d2-s7.probe.tft-example.net.", src: zero},
		{name: "zero gate, d2 from the zero address", gate: zero, qname: "d2-s7.probe.tft-example.net.", src: zero},
		{name: "zero gate, d2 from anyone", gate: zero, qname: "d2-s7.probe.tft-example.net.", src: other},
		{name: "zero gate, d1 still answers", gate: zero, qname: "d1-s7.probe.tft-example.net.", src: other, answered: true},
		{name: "prefix in a later label", gate: gate, qname: "x.d1-s7.probe.tft-example.net.", src: other, noRule: true},
		{name: "d2 prefix in a later label", gate: gate, qname: "x.d2-s7.probe.tft-example.net.", src: gate, noRule: true},
		{name: "unknown prefix", gate: gate, qname: "www.probe.tft-example.net.", src: other, noRule: true},
		{name: "prefix without its dash", gate: gate, qname: "d1s7.probe.tft-example.net.", src: other, noRule: true},
		{name: "dotless name", gate: gate, qname: "d1-s7", src: other, noRule: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rule := ProbeRules(web, tc.gate)(tc.qname)
			if (rule == nil) != tc.noRule {
				t.Fatalf("%s: got rule %v, want none %v", tc.qname, rule != nil, tc.noRule)
			}
			if rule == nil {
				return
			}
			ip, ok := rule(tc.src)
			if ok != tc.answered || (ok && ip != web) {
				t.Fatalf("%s from %v: (%v, %v), want answered %v with %v", tc.qname, tc.src, ip, ok, tc.answered, web)
			}
		})
	}
}
