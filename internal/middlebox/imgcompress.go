package middlebox

import (
	"strings"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/httpwire"
)

// ImageCompressor transcodes images to lower quality in flight — the mobile
// ISP behaviour of §5.2/Table 7. Each ISP runs a characteristic compression
// ratio (or two, for the "M" rows); the achieved byte ratio is the
// attribution fingerprint the analysis recovers.
type ImageCompressor struct {
	// Product names the ISP's transcoding appliance.
	Product string
	// Ratios lists the output/input size ratios the appliance produces.
	// One entry models a fixed setting; two model the ISPs where the paper
	// saw multiple ratios (Vodacom ZA, Vodafone EG). Selection between them
	// is per-request pseudo-random but deterministic per (host, path).
	Ratios []float64
}

// InterceptHTTP implements HTTPInterceptor.
func (ic ImageCompressor) InterceptHTTP(host, path string, resp *httpwire.Response) *httpwire.Response {
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "image/") {
		return resp
	}
	if len(resp.Body) < MinInjectSize || len(ic.Ratios) == 0 {
		return resp
	}
	ratio := ic.Ratios[hashStrings(host, path)%uint32(len(ic.Ratios))]
	out, err := content.Recompress(resp.Body, content.QualityForRatio(ratio))
	if err != nil {
		// Not an image our transcoder understands; real appliances pass
		// unknown formats through.
		return resp
	}
	resp.Body = out
	return resp
}

func hashStrings(parts ...string) uint32 {
	var h uint32 = 2166136261
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint32(p[i])) * 16777619
		}
		h = (h ^ 0x1f) * 16777619
	}
	// Finalization avalanche: FNV's low bits respond weakly to suffix
	// changes, and callers reduce modulo small counts.
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}
