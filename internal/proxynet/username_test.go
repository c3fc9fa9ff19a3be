package proxynet

import (
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/geo"
)

// TestParseUsernameTable covers the parameter grammar, including zone users
// whose names collide with reserved tokens — the token-swallowing bug class.
func TestParseUsernameTable(t *testing.T) {
	cases := []struct {
		in   string
		want Params
	}{
		{"lum-customer-tft", Params{User: "lum-customer-tft"}},
		{"lum-customer-tft-country-de", Params{User: "lum-customer-tft", Country: "DE"}},
		{"lum-customer-tft-country-de-session-429-dns-remote",
			Params{User: "lum-customer-tft", Country: "DE", Session: "429", RemoteDNS: true}},
		// A customer literally named after a reserved token: the prefix is
		// immune, so "x" is part of the user, not a session value.
		{"lum-customer-session-x", Params{User: "lum-customer-session-x"}},
		{"lum-customer-country-session-7", Params{User: "lum-customer-country", Session: "7"}},
		{"lum-customer-dns-dns-remote", Params{User: "lum-customer-dns", RemoteDNS: true}},
		// A bare "lum-customer" is an incomplete zone triple: the first
		// parameter token becomes its <name> and the value joins the user.
		{"lum-customer-dns-remote", Params{User: "lum-customer-dns-remote"}},
		// Non-Luminati zone users: only the first token is the prefix.
		{"alice", Params{User: "alice"}},
		{"alice-session-9", Params{User: "alice", Session: "9"}},
		{"session-session-9", Params{User: "session", Session: "9"}},
		{"country", Params{User: "country"}},
		// "dns" not followed by "remote" stays part of the user.
		{"alice-dns", Params{User: "alice-dns"}},
		{"lum-customer-a-dns-x", Params{User: "lum-customer-a-dns-x"}},
		// Truncated parameter at end of string.
		{"alice-country", Params{User: "alice-country"}},
	}
	for _, c := range cases {
		if got := ParseUsername(c.in); got != c.want {
			t.Errorf("ParseUsername(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// reservedAfterPrefix reports whether a user name contains a reserved token
// outside its zone-user prefix, or is a "lum-customer" missing its third
// token — names the username grammar inherently cannot round-trip (the token
// would parse as a parameter, or the first parameter as the <name>).
func reservedAfterPrefix(user string) bool {
	toks := strings.Split(user, "-")
	prefix := 1
	if len(toks) >= 2 && toks[0] == "lum" && toks[1] == "customer" {
		if len(toks) == 2 {
			return true
		}
		prefix = 3
	}
	for _, tok := range toks[prefix:] {
		switch tok {
		case "country", "session":
			return true
		case "dns":
			// Only "dns-remote" parses as a parameter.
			return true
		}
	}
	return false
}

func isAlnum(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9') {
			return false
		}
	}
	return true
}

// FuzzUsernameRoundTrip checks ParseUsername(p.Username()) == p for every
// Params the grammar can express.
func FuzzUsernameRoundTrip(f *testing.F) {
	f.Add("lum-customer-tft", "us", "429", true)
	f.Add("lum-customer-session-x", "", "", false)
	f.Add("alice", "de", "s1", false)
	f.Add("session", "", "7", true)
	f.Fuzz(func(t *testing.T, user, country, session string, remote bool) {
		// Constrain inputs to the grammar's domain: dash-separated lowercase
		// alphanumeric tokens for the user, a two-letter country, a dash-free
		// alphanumeric session.
		if user == "" || strings.HasPrefix(user, "-") || strings.HasSuffix(user, "-") ||
			strings.Contains(user, "--") || !isAlnum(strings.ReplaceAll(user, "-", "")) {
			t.Skip()
		}
		if reservedAfterPrefix(user) {
			t.Skip()
		}
		if country != "" && (len(country) != 2 || !isAlnum(country)) {
			t.Skip()
		}
		if session != "" && !isAlnum(session) {
			t.Skip()
		}
		p := Params{
			User:      user,
			Country:   geo.CountryCode(strings.ToUpper(country)),
			Session:   session,
			RemoteDNS: remote,
		}
		if got := ParseUsername(p.Username()); got != p {
			t.Fatalf("round trip: %+v → %q → %+v", p, p.Username(), got)
		}
	})
}

// TestCountryCodeIsToUpper: a country value parses to what strings.ToUpper
// made of it, in any case; a listed code rendered lower-case, as every
// username is, comes back at no allocation.
func TestCountryCodeIsToUpper(t *testing.T) {
	for _, c := range geo.Countries {
		code := string(c.Code)
		for _, v := range []string{code, strings.ToLower(code), strings.ToLower(code[:1]) + code[1:]} {
			if got := countryCode(v); got != geo.CountryCode(strings.ToUpper(v)) {
				t.Fatalf("countryCode(%q) = %q", v, got)
			}
		}
		lower := strings.ToLower(code)
		if n := testing.AllocsPerRun(10, func() { countryCode(lower) }); n != 0 {
			t.Fatalf("countryCode(%q) allocated %v times", lower, n)
		}
	}
	for _, v := range []string{"", "x", "zz", "QQ", "d3", "@[", "`{", "deu", "ÿé", "\xff\xfe"} {
		if got := countryCode(v); got != geo.CountryCode(strings.ToUpper(v)) {
			t.Fatalf("countryCode(%q) = %q, want %q", v, got, strings.ToUpper(v))
		}
	}
}
