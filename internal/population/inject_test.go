package population

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/middlebox"
)

// perResponseInjection is how an HTMLInjector built its injection on every
// response it rewrote, before it built it once: the oracle the shared bytes
// are held to.
func perResponseInjection(in *middlebox.HTMLInjector) string {
	var inject string
	if in.SignatureIsURL {
		inject = fmt.Sprintf("<script src=\"http://%s/adframe.js\" async></script>\n", in.Signature)
	} else {
		inject = fmt.Sprintf("<script>%s /* injected */</script>\n", in.Signature)
	}
	if in.ExtraBytes > 0 {
		pad := fmt.Sprintf("<div style=\"display:none\" class=\"ad-payload\">%s</div>\n",
			strings.Repeat("ad ", in.ExtraBytes/3))
		inject += pad
	}
	return inject
}

// TestInjectionsMatchPerResponseConstruction: every injector the HTTP world
// builds, and the one cmd/exitnode's -inject-sig builds, rewrites the HTML
// object exactly as the per-response construction did, on its first
// response and on a later one.
func TestInjectionsMatchPerResponseConstruction(t *testing.T) {
	w, err := BuildHTTPWorld(testSeed, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	injectors := []*middlebox.HTMLInjector{
		{Product: "flag adware", Signature: "ads.tft-example.net", SignatureIsURL: true},
	}
	seen := make(map[*middlebox.HTMLInjector]bool)
	padded := 0
	for _, p := range w.Spec.paths {
		if p == nil {
			continue
		}
		for _, ic := range p.HTTP {
			if in, ok := ic.(*middlebox.HTMLInjector); ok && !seen[in] {
				seen[in] = true
				injectors = append(injectors, in)
				if in.ExtraBytes > 0 {
					padded++
				}
			}
		}
	}
	if len(seen) < len(Table6) || padded == 0 {
		t.Fatalf("the world built %d injectors, %d padded; want every Table 6 group's and the rest", len(seen), padded)
	}
	body := content.Object(content.KindHTML)
	at := bytes.LastIndex(body, []byte("</body>"))
	for _, in := range injectors {
		want := string(body[:at]) + perResponseInjection(in) + string(body[at:])
		for range 2 {
			resp := httpwire.NewResponse(200, body)
			resp.Header.Set("Content-Type", content.KindHTML.ContentType())
			if got := in.InterceptHTTP("h.example.net", "/object.html", resp).Body; string(got) != want {
				t.Fatalf("%s (%q) injected %d bytes, want the per-response construction's %d", in.Product, in.Signature, len(got)-len(body), len(want)-len(body))
			}
		}
	}
}
