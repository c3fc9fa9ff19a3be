// Package content provides the measurement objects the HTTP experiment
// (§5.1) fetches through every exit node — a 9 KB HTML page, a 39 KB image,
// a 258 KB un-minified JavaScript library, and a 3 KB un-minified CSS file —
// together with the helpers the analysis needs: deterministic content
// generation, a quality-parameterized image codec whose size responds to
// recompression the way JPEG does, and URL extraction from HTML (used in
// §4.3.3 to attribute hijack landing pages).
package content

import (
	"fmt"
	"strings"
	"sync"
)

// Kind is one of the four object types fetched per exit node.
type Kind int

// The four measured object kinds.
const (
	KindHTML Kind = iota
	KindImage
	KindJS
	KindCSS
	numKinds // count of the kinds above
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindHTML:
		return "HTML"
	case KindImage:
		return "Image"
	case KindJS:
		return "JavaScript"
	case KindCSS:
		return "CSS"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Path returns the URL path the object is served under.
func (k Kind) Path() string {
	switch k {
	case KindHTML:
		return "/object.html"
	case KindImage:
		return "/object.jpg"
	case KindJS:
		return "/object.js"
	case KindCSS:
		return "/object.css"
	}
	return "/unknown"
}

// ContentType returns the MIME type the origin serves the object with.
func (k Kind) ContentType() string {
	switch k {
	case KindHTML:
		return "text/html; charset=utf-8"
	case KindImage:
		return "image/jpeg"
	case KindJS:
		return "application/javascript"
	case KindCSS:
		return "text/css"
	}
	return "application/octet-stream"
}

// Kinds lists all object kinds in experiment order.
var Kinds = []Kind{KindHTML, KindImage, KindJS, KindCSS}

// Paper object sizes (§5.1).
const (
	HTMLSize  = 9 * 1024
	ImageSize = 39 * 1024
	JSSize    = 258 * 1024
	CSSSize   = 3 * 1024
)

// objects holds the four canonical objects, each generated on first use.
var objects [numKinds]struct {
	once  sync.Once
	bytes []byte
}

// Object returns the canonical bytes for a kind, nil for an unknown one.
// The generation is deterministic so any two parties (origin server,
// measurement client) agree on the exact payload. Every call returns the
// same shared slice: callers must treat it as read-only. Its capacity equals
// its length, so an append reallocates rather than writing past the object.
func Object(k Kind) []byte {
	if k < 0 || k >= numKinds {
		return nil
	}
	o := &objects[k]
	o.once.Do(func() {
		b := generate(k)
		o.bytes = b[:len(b):len(b)]
	})
	return o.bytes
}

// generate builds the canonical bytes for a kind from scratch.
func generate(k Kind) []byte {
	switch k {
	case KindHTML:
		return htmlObject()
	case KindImage:
		img := Image{Width: 640, Height: 480, Quality: 92, ID: 0x7f71}
		return img.Encode(ImageSize)
	case KindJS:
		return textObject("js", JSSize,
			"// tft measurement library — unminified on purpose (§5.1)\n",
			"function probeSegment%04d(input) {\n    var accumulator = input;\n    accumulator = accumulator + %d;\n    return accumulator;\n}\n")
	case KindCSS:
		return textObject("css", CSSSize,
			"/* tft measurement stylesheet — unminified on purpose (§5.1) */\n",
			".probe-segment-%04d {\n    margin: %dpx;\n    padding: 2px;\n}\n")
	}
	return nil
}

// htmlObject builds the 9 KB HTML page. It intentionally contains realistic
// structure (head, scripts, body text) because several real-world injectors
// key on document structure.
func htmlObject() []byte {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<title>tft measurement page</title>\n")
	sb.WriteString("<meta charset=\"utf-8\">\n")
	sb.WriteString("<link rel=\"stylesheet\" href=\"/object.css\">\n")
	sb.WriteString("<script src=\"/object.js\"></script>\n</head>\n<body>\n")
	sb.WriteString("<h1>End-to-end integrity probe</h1>\n")
	para := "<p id=\"seg-%04d\">This paragraph is part of a measurement object; " +
		"its bytes must arrive unmodified for the end-to-end test to pass. Sequence %d.</p>\n"
	for i := 0; sb.Len() < HTMLSize-260; i++ {
		fmt.Fprintf(&sb, para, i, i)
	}
	sb.WriteString("</body>\n</html>\n")
	out := []byte(sb.String())
	return padTo(out, HTMLSize, "<!-- pad -->")
}

// textObject builds a deterministic repetitive text object of exactly size
// bytes from a header and a repeating template.
func textObject(tag string, size int, header, tmpl string) []byte {
	var sb strings.Builder
	sb.WriteString(header)
	for i := 0; sb.Len() < size-200; i++ {
		fmt.Fprintf(&sb, tmpl, i, i%97)
	}
	return padTo([]byte(sb.String()), size, commentFor(tag))
}

func commentFor(tag string) string {
	if tag == "css" {
		return "/* pad */"
	}
	return "// pad \n"
}

// padTo extends b to exactly size bytes with the pad text (truncated as
// needed). It panics if b is already longer — the generators above size
// themselves below their targets.
func padTo(b []byte, size int, pad string) []byte {
	if len(b) > size {
		panic(fmt.Sprintf("content: object overflows target: %d > %d", len(b), size))
	}
	for len(b) < size {
		n := size - len(b)
		if n > len(pad) {
			n = len(pad)
		}
		b = append(b, pad[:n]...)
	}
	return b
}
