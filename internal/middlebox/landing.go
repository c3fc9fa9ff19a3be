package middlebox

import (
	"fmt"
	"strings"
)

// SharedRedirectJS is the JavaScript block §4.3.1 found byte-identical in
// the hijack pages of Cox, Oi Fixo, TalkTalk, BT Internet, and Verizon —
// evidence they bought the same redirection appliance. The attribution
// pipeline fingerprints it.
const SharedRedirectJS = `<script type="text/javascript">
// dnsassist redirection appliance v2.3
var q = encodeURIComponent(window.location.hostname);
function dnsAssistRedirect(base) { window.location = base + "?q=" + q + "&src=nxd"; }
</script>`

// LandingSpec describes one NXDOMAIN landing page: who operates it and what
// it links to. The rendered HTML is what the measurement client captures in
// §4.1 step 3 and mines for URLs in §4.3.3.
type LandingSpec struct {
	// Operator is the human-readable owner ("TMnet", "Verizon", ...).
	Operator string
	// RedirectURL is the search/ads page the hijack sends users to; its
	// domain is the Table 4/5 attribution signal.
	RedirectURL string
	// SharedAppliance marks operators using the common appliance; their
	// pages embed the byte-identical SharedRedirectJS block.
	SharedAppliance bool
	// Tagline is extra marketing text (TMnet's monetization partner brags
	// about "typing errors into advertising advantage").
	Tagline string
	// AdCount pads the page with this many ad placeholders.
	AdCount int
}

// Render produces the landing page HTML.
func (l LandingSpec) Render() []byte {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&sb, "<title>%s search assistance</title>\n", l.Operator)
	if l.SharedAppliance {
		sb.WriteString(SharedRedirectJS)
		fmt.Fprintf(&sb, "<script>dnsAssistRedirect(%q);</script>\n", l.RedirectURL)
	} else {
		fmt.Fprintf(&sb, "<meta http-equiv=\"refresh\" content=\"0; url=%s\">\n", l.RedirectURL)
	}
	sb.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&sb, "<h1>The address you requested could not be found</h1>\n")
	fmt.Fprintf(&sb, "<p>%s suggests: <a href=%q>search results</a></p>\n", l.Operator, l.RedirectURL)
	if l.Tagline != "" {
		fmt.Fprintf(&sb, "<p class=\"partner\">%s</p>\n", l.Tagline)
	}
	for i := 0; i < l.AdCount; i++ {
		fmt.Fprintf(&sb, "<div class=\"ad-slot\" id=\"ad-%d\"><a href=%q>sponsored result %d</a></div>\n",
			i, l.RedirectURL, i)
	}
	sb.WriteString("</body>\n</html>\n")
	return []byte(sb.String())
}
