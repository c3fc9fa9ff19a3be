package content

import (
	"bytes"
	"crypto/sha256"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestObjectSizes(t *testing.T) {
	cases := map[Kind]int{KindHTML: HTMLSize, KindImage: ImageSize, KindJS: JSSize, KindCSS: CSSSize}
	for k, want := range cases {
		if got := len(Object(k)); got != want {
			t.Errorf("%v object is %d bytes, want %d", k, got, want)
		}
	}
}

func TestObjectsDeterministic(t *testing.T) {
	for _, k := range Kinds {
		if !bytes.Equal(Object(k), Object(k)) {
			t.Errorf("%v object not deterministic", k)
		}
	}
}

// TestObjectIsSharedAndClipped: every call hands out the one canonical copy,
// with no spare capacity for an append to scribble on.
func TestObjectIsSharedAndClipped(t *testing.T) {
	for _, k := range Kinds {
		a, b := Object(k), Object(k)
		if &a[0] != &b[0] {
			t.Errorf("%v: two calls returned different backing arrays", k)
		}
		if len(a) != cap(a) {
			t.Errorf("%v: len %d, cap %d; an append would write into the shared object", k, len(a), cap(a))
		}
		if !bytes.Equal(a, generate(k)) {
			t.Errorf("%v: the shared copy differs from a fresh generation", k)
		}
	}
	if Object(numKinds) != nil || Object(-1) != nil {
		t.Error("unknown kinds must yield nil")
	}
}

// TestObjectConcurrentFirstCall: callers racing on a kind's first use all
// get the same bytes (run under -race).
func TestObjectConcurrentFirstCall(t *testing.T) {
	for i := range objects {
		objects[i].once, objects[i].bytes = sync.Once{}, nil
	}
	const callers = 8
	var got [callers][numKinds][]byte
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range Kinds {
				got[c][k] = Object(k)
			}
		}()
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		for _, k := range Kinds {
			if &got[c][k][0] != &got[0][k][0] {
				t.Fatalf("%v: caller %d got a different backing array than caller 0", k, c)
			}
		}
	}
}

func TestObjectsDistinct(t *testing.T) {
	seen := make(map[[32]byte]Kind)
	for _, k := range Kinds {
		h := sha256.Sum256(Object(k))
		if prev, ok := seen[h]; ok {
			t.Fatalf("%v and %v hash identically", prev, k)
		}
		seen[h] = k
	}
}

func TestKindMetadata(t *testing.T) {
	if KindHTML.Path() != "/object.html" || KindImage.ContentType() != "image/jpeg" {
		t.Error("kind metadata mismatch")
	}
	if KindJS.String() != "JavaScript" || Kind(9).String() != "Kind(9)" {
		t.Error("Kind.String mismatch")
	}
}

func TestImageRoundTrip(t *testing.T) {
	im := Image{Width: 640, Height: 480, Quality: 92, ID: 42}
	enc := im.Encode(ImageSize)
	got, err := DecodeImage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != im {
		t.Fatalf("decoded %+v, want %+v", got, im)
	}
}

func TestImageDecodeErrors(t *testing.T) {
	if _, err := DecodeImage(nil); err == nil {
		t.Error("empty image accepted")
	}
	enc := Image{Width: 1, Height: 1, Quality: 50, ID: 1}.Encode(1024)
	enc[0] = 'X'
	if _, err := DecodeImage(enc); err == nil {
		t.Error("bad magic accepted")
	}
	enc = Image{Width: 1, Height: 1, Quality: 50, ID: 1}.Encode(1024)
	if _, err := DecodeImage(enc[:len(enc)-5]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestRecompressShrinks(t *testing.T) {
	orig := Object(KindImage)
	out, err := Recompress(orig, 46) // ~50% quality target
	if err != nil {
		t.Fatal(err)
	}
	ratio := CompressionRatio(orig, out)
	if ratio >= 0.99 {
		t.Fatalf("recompression did not shrink: ratio %.3f", ratio)
	}
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("ratio %.3f, want ~0.50", ratio)
	}
	// The recompressed object still decodes, at the new quality.
	im, err := DecodeImage(out)
	if err != nil {
		t.Fatal(err)
	}
	if im.Quality != 46 {
		t.Fatalf("quality = %d, want 46", im.Quality)
	}
}

func TestRecompressDeterministic(t *testing.T) {
	orig := Object(KindImage)
	a, err1 := Recompress(orig, 50)
	b, err2 := Recompress(orig, 50)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("recompression not deterministic")
	}
}

func TestQualityForRatioInverts(t *testing.T) {
	orig := Object(KindImage)
	for _, ratio := range []float64{0.34, 0.47, 0.51, 0.53, 0.54} {
		q := QualityForRatio(ratio)
		out, err := Recompress(orig, q)
		if err != nil {
			t.Fatal(err)
		}
		got := CompressionRatio(orig, out)
		if math.Abs(got-ratio) > 0.03 {
			t.Errorf("target ratio %.2f via q=%d achieved %.3f", ratio, q, got)
		}
	}
}

func TestPropertyRecompressionMonotone(t *testing.T) {
	orig := Object(KindImage)
	f := func(qa, qb uint8) bool {
		qa = qa%90 + 5
		qb = qb%90 + 5
		a, err1 := Recompress(orig, qa)
		b, err2 := Recompress(orig, qb)
		if err1 != nil || err2 != nil {
			return false
		}
		if qa < qb {
			return len(a) <= len(b)
		}
		return len(a) >= len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractLinks(t *testing.T) {
	body := []byte(`<html><body>
		<a href="http://searchassist.verizon.com/main?q=typo">search</a>
		<script src="https://d36mw5gp02ykm5.cloudfront.net/inject.js"></script>
		<img src="http://finder.cox.net/img.png">
		plain text http://finder.cox.net/img.png duplicate
		not-a-url http:// nohost
	</body></html>`)
	links := ExtractLinks(body)
	if len(links) != 3 {
		t.Fatalf("links = %v", links)
	}
	domains := ExtractDomains(body)
	want := []string{"d36mw5gp02ykm5.cloudfront.net", "finder.cox.net", "searchassist.verizon.com"}
	if len(domains) != len(want) {
		t.Fatalf("domains = %v, want %v", domains, want)
	}
	for i := range want {
		if domains[i] != want[i] {
			t.Fatalf("domains = %v, want %v", domains, want)
		}
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://a.example.org/path":   "a.example.org",
		"https://B.Example.org:8443/": "b.example.org",
		"http://host.tld?x=1":         "host.tld",
		"ftp://x.example.org":         "",
		"http://":                     "",
		"http://nodots":               "",
	}
	for in, want := range cases {
		if got := HostOf(in); got != want {
			t.Errorf("HostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExtractLinksEmpty(t *testing.T) {
	if got := ExtractLinks([]byte("no urls here")); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	if got := ExtractLinks(nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}
