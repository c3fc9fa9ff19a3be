package middlebox

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"github.com/tftproject/tft/internal/httpwire"
)

// isHTML reports whether a response carries an HTML document.
func isHTML(resp *httpwire.Response) bool {
	return strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html")
}

// MinInjectSize is the object size below which real-world injectors leave
// content alone. §5.1 reports that objects under 1 KB saw much less
// modification, which is why the paper's measurement objects are larger;
// the ablation bench exercises this threshold.
const MinInjectSize = 1024

// HTMLInjector appends a JavaScript payload to HTML documents — the §5.2
// ad-injection behaviour. Signature is the URL or keyword the paper's
// Table 6 extracts from injected code; it is embedded verbatim so the
// analysis can recover it.
type HTMLInjector struct {
	// Product names the injecting party ("AdTaily widget malware", ...).
	Product string
	// Signature is the characteristic URL (e.g.
	// "d36mw5gp02ykm5.cloudfront.net") or keyword (e.g. "var oiasudoj;")
	// appearing in the injected code.
	Signature string
	// SignatureIsURL selects between a script-src injection (URL) and an
	// inline code injection (keyword).
	SignatureIsURL bool
	// ExtraBytes pads the injection to model heavyweight ad payloads
	// (AdTaily adds ~335 KB, oiasudoj ~23 KB).
	ExtraBytes int

	// The injection depends on the fields alone, so it is built once, at
	// the first response the injector rewrites, and shared by every node
	// the injector sits on.
	once   sync.Once
	inject []byte
}

// InterceptHTTP implements HTTPInterceptor.
func (in *HTMLInjector) InterceptHTTP(host, path string, resp *httpwire.Response) *httpwire.Response {
	if resp.StatusCode != 200 || !isHTML(resp) {
		return resp
	}
	if len(resp.Body) < MinInjectSize {
		return resp
	}
	in.once.Do(in.build)
	resp.Body = injectBeforeBodyClose(resp.Body, in.inject)
	return resp
}

// build writes the injection: the script, then the ad padding.
func (in *HTMLInjector) build() {
	if in.SignatureIsURL {
		in.inject = fmt.Appendf(nil, "<script src=\"http://%s/adframe.js\" async></script>\n", in.Signature)
	} else {
		in.inject = fmt.Appendf(nil, "<script>%s /* injected */</script>\n", in.Signature)
	}
	if in.ExtraBytes > 0 {
		in.inject = fmt.Appendf(in.inject, "<div style=\"display:none\" class=\"ad-payload\">%s</div>\n",
			strings.Repeat("ad ", in.ExtraBytes/3))
	}
}

// NetSparkMetaTag is the marker §5.2 found on every page filtered by
// Internet Rimon's NetSpark appliance.
const NetSparkMetaTag = `<meta name="NetSparkQuiltingResult" content="clean">`

// ContentFilter models NetSpark-style ISP web filtering: every HTML page is
// rewritten and stamped with the filter's meta tag.
type ContentFilter struct {
	Product string
}

// InterceptHTTP implements HTTPInterceptor.
func (cf ContentFilter) InterceptHTTP(host, path string, resp *httpwire.Response) *httpwire.Response {
	if resp.StatusCode != 200 || !isHTML(resp) {
		return resp
	}
	if i := bytes.Index(resp.Body, []byte("<head>")); i >= 0 {
		var out []byte
		out = append(out, resp.Body[:i+len("<head>")]...)
		out = append(out, '\n')
		out = append(out, NetSparkMetaTag...)
		out = append(out, resp.Body[i+len("<head>"):]...)
		resp.Body = out
	} else {
		resp.Body = append([]byte(NetSparkMetaTag+"\n"), resp.Body...)
	}
	return resp
}

// BlockPage replaces responses outright with an error/block page — the 32
// "bandwidth exceeded"/"blocked" cases §5.2 filters out of the HTML
// analysis, and the empty/error replacements observed for JS and CSS.
type BlockPage struct {
	Product string
	// Message is the page text ("bandwidth exceeded", "blocked").
	Message string
	// Kinds restricts which content types are replaced; empty means all.
	Kinds []string
	// Empty returns a 200 with an empty body instead of an error page.
	Empty bool
}

// InterceptHTTP implements HTTPInterceptor.
func (bp BlockPage) InterceptHTTP(host, path string, resp *httpwire.Response) *httpwire.Response {
	if len(bp.Kinds) > 0 {
		ct := resp.Header.Get("Content-Type")
		matched := false
		for _, k := range bp.Kinds {
			if strings.HasPrefix(ct, k) {
				matched = true
				break
			}
		}
		if !matched {
			return resp
		}
	}
	if bp.Empty {
		out := httpwire.NewResponse(200, nil)
		out.Header.Set("Content-Type", resp.Header.Get("Content-Type"))
		return out
	}
	body := fmt.Sprintf("<html><head><title>%s</title></head><body><h1>%s</h1></body></html>",
		bp.Message, bp.Message)
	out := httpwire.NewResponse(403, []byte(body))
	out.Header.Set("Content-Type", "text/html")
	return out
}

// injectBeforeBodyClose inserts payload just before </body>, or appends it
// when the page has no closing tag. The result is always a fresh slice:
// body may be shared (the origin serves one canonical copy of each object)
// and an append could write into its spare capacity.
func injectBeforeBodyClose(body, payload []byte) []byte {
	i := bytes.LastIndex(body, []byte("</body>"))
	if i < 0 {
		i = len(body)
	}
	out := make([]byte, 0, len(body)+len(payload))
	out = append(out, body[:i]...)
	out = append(out, payload...)
	out = append(out, body[i:]...)
	return out
}
