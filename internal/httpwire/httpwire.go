// Package httpwire is a small, transport-agnostic HTTP/1.1 implementation
// covering exactly what the proxy service and the measurement methodology
// need: origin-form requests to web servers, absolute-form requests to the
// super proxy (GET http://host/path — §2.3), the CONNECT method for port-443
// tunnels, Content-Length bodies, and free-form headers (Luminati's
// X-Hola-* debug headers ride here).
//
// It reads from a bufio.Reader and writes to any io.Writer, so the same
// code serves the in-memory simnet fabric and real TCP sockets.
package httpwire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Limits protecting servers from malformed or hostile peers.
const (
	MaxHeaderBytes = 64 << 10
	MaxBodyBytes   = 8 << 20
	maxHeaderLines = 128
)

// Protocol errors.
var (
	ErrMalformed    = errors.New("httpwire: malformed message")
	ErrHeaderTooBig = errors.New("httpwire: header block too large")
	ErrBodyTooBig   = errors.New("httpwire: body exceeds limit")
)

// Header is an ordered-insensitive header map with canonicalized keys.
type Header map[string]string

// CanonicalKey normalizes a header name (content-length → Content-Length).
func CanonicalKey(k string) string {
	// Fast path: keys at the call sites are almost always written in
	// canonical form already ("Host", "Content-Length"), so scan before
	// paying the two allocations of the rewrite.
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (upper && 'a' <= c && c <= 'z') || (!upper && 'A' <= c && c <= 'Z') {
			return canonicalKeySlow(k)
		}
		upper = c == '-'
	}
	return k
}

func canonicalKeySlow(k string) string {
	b := []byte(k)
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - 'a' + 'A'
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
		upper = c == '-'
	}
	return string(b)
}

// Set stores a header value.
func (h Header) Set(k, v string) { h[CanonicalKey(k)] = v }

// Get retrieves a header value ("" when absent).
func (h Header) Get(k string) string { return h[CanonicalKey(k)] }

// Del removes a header.
func (h Header) Del(k string) { delete(h, CanonicalKey(k)) }

// Clone deep-copies the header map.
func (h Header) Clone() Header {
	out := make(Header, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// write emits headers sorted by key for deterministic wire bytes.
func (h Header) write(w *bufio.Writer) { h.writeWith(w, "", "") }

// writeWith emits the headers plus one override entry — replacing any
// existing value under the same key — in a single sorted pass, so the
// serializers can stamp Content-Length without cloning the map per message.
func (h Header) writeWith(w *bufio.Writer, oKey, oVal string) {
	// Sort from a stack-backed array: messages carry a handful of headers,
	// and slices.Sort (unlike sort.Strings) doesn't force the slice to heap.
	var arr [12]string
	keys := arr[:0]
	if len(h)+1 > len(arr) {
		keys = make([]string, 0, len(h)+1)
	}
	for k := range h {
		if k != oKey {
			keys = append(keys, k)
		}
	}
	if oKey != "" {
		keys = append(keys, oKey)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.WriteString(k)
		w.WriteString(": ")
		if k == oKey {
			w.WriteString(oVal)
		} else {
			w.WriteString(h[k])
		}
		w.WriteString("\r\n")
	}
}

// Request is an HTTP request in any of the three target forms the proxy
// stack uses: origin-form ("/object.html"), absolute-form
// ("http://d1.example.org/"), or authority-form for CONNECT
// ("192.0.2.1:443").
type Request struct {
	Method string
	Target string
	Proto  string
	Header Header
	Body   []byte
}

// NewRequest builds a request with an empty header map.
func NewRequest(method, target string) *Request {
	return &Request{Method: method, Target: target, Proto: "HTTP/1.1", Header: make(Header, 8)}
}

// Response is an HTTP response.
type Response struct {
	StatusCode int
	Reason     string
	Proto      string
	Header     Header
	Body       []byte

	// pooled is the pool box of the buffer ReadResponse read Body into,
	// nil when the body was not pooled or has been released.
	pooled *[]byte
}

// NewResponse builds a response with standard reason text and body.
func NewResponse(code int, body []byte) *Response {
	return &Response{StatusCode: code, Reason: ReasonPhrase(code), Proto: "HTTP/1.1", Header: make(Header, 8), Body: body}
}

// ReasonPhrase returns the standard reason for common status codes.
func ReasonPhrase(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 407:
		return "Proxy Authentication Required"
	case 502:
		return "Bad Gateway"
	case 504:
		return "Gateway Timeout"
	}
	return "Status " + strconv.Itoa(code)
}

// Write serializes the request. Content-Length is set from Body.
func (r *Request) Write(w io.Writer) error {
	bw := getWriter(w)
	defer putWriter(bw)
	bw.WriteString(r.Method)
	bw.WriteByte(' ')
	bw.WriteString(r.Target)
	bw.WriteByte(' ')
	bw.WriteString(protoOr(r.Proto))
	bw.WriteString("\r\n")
	if len(r.Body) > 0 || r.Method == "POST" || r.Method == "PUT" {
		r.Header.writeWith(bw, "Content-Length", strconv.Itoa(len(r.Body)))
	} else {
		r.Header.write(bw)
	}
	bw.WriteString("\r\n")
	bw.Write(r.Body)
	return bw.Flush()
}

// Write serializes the response. Content-Length is always set.
func (r *Response) Write(w io.Writer) error {
	bw := getWriter(w)
	defer putWriter(bw)
	reason := r.Reason
	if reason == "" {
		reason = ReasonPhrase(r.StatusCode)
	}
	bw.WriteString(protoOr(r.Proto))
	bw.WriteByte(' ')
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(r.StatusCode), 10))
	bw.WriteByte(' ')
	bw.WriteString(reason)
	bw.WriteString("\r\n")
	r.Header.writeWith(bw, "Content-Length", strconv.Itoa(len(r.Body)))
	bw.WriteString("\r\n")
	bw.Write(r.Body)
	return bw.Flush()
}

func protoOr(p string) string {
	if p == "" {
		return "HTTP/1.1"
	}
	return p
}

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	method, rest, ok := strings.Cut(line, " ")
	if !ok {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	target, proto, ok := strings.Cut(rest, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") || method == "" || target == "" {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	body, _, err := readBody(br, h, false)
	if err != nil {
		return nil, err
	}
	return &Request{Method: method, Target: target, Proto: proto, Header: h, Body: body}, nil
}

// ReadResponse parses one response from br.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	proto, rest, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	codeStr, reason, _ := strings.Cut(rest, " ")
	code, err := strconv.Atoi(codeStr)
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, codeStr)
	}
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	body, box, err := readBody(br, h, true)
	if err != nil {
		return nil, err
	}
	return &Response{StatusCode: code, Reason: reason, Proto: proto, Header: h, Body: body, pooled: box}, nil
}

func readLine(br *bufio.Reader) (string, error) {
	// Fast path: the line fits the bufio buffer (every header and request
	// line in the simulation does), so one string conversion suffices.
	chunk, isPrefix, err := br.ReadLine()
	if err != nil {
		return "", err
	}
	if !isPrefix {
		if len(chunk) > MaxHeaderBytes {
			return "", ErrHeaderTooBig
		}
		return string(chunk), nil
	}
	var sb strings.Builder
	sb.Write(chunk)
	for {
		chunk, isPrefix, err = br.ReadLine()
		if err != nil {
			return "", err
		}
		sb.Write(chunk)
		if sb.Len() > MaxHeaderBytes {
			return "", ErrHeaderTooBig
		}
		if !isPrefix {
			return sb.String(), nil
		}
	}
}

func readHeader(br *bufio.Reader) (Header, error) {
	// Sized for the typical message: presizing skips the incremental bucket
	// growth that dominated this function's allocation profile.
	h := make(Header, 8)
	total := 0
	for i := 0; ; i++ {
		if i > maxHeaderLines {
			return nil, ErrHeaderTooBig
		}
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return h, nil
		}
		total += len(line)
		if total > MaxHeaderBytes {
			return nil, ErrHeaderTooBig
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok || k == "" || strings.ContainsAny(k, " \t") {
			return nil, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		h.Set(k, strings.TrimSpace(v))
	}
}

// readBody reads the body Content-Length announces, nil without the
// header. With pool set, a body of minPooledBody bytes or more is read into
// a buffer from bodyPools, whose box comes back beside it (see
// Response.Release).
func readBody(br *bufio.Reader, h Header, pool bool) ([]byte, *[]byte, error) {
	cl := h.Get("Content-Length")
	if cl == "" {
		return nil, nil, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return nil, nil, fmt.Errorf("%w: Content-Length %q", ErrMalformed, cl)
	}
	if n > MaxBodyBytes {
		return nil, nil, ErrBodyTooBig
	}
	var body []byte
	var box *[]byte
	if pool && n >= minPooledBody {
		body, box = getBody(n)
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(br, body); err != nil {
		if box != nil {
			putBody(box)
		}
		return nil, nil, err
	}
	return body, box, nil
}

// RoundTrip writes req on conn and reads the response. The caller owns the
// connection; br must wrap conn's read side.
func RoundTrip(conn io.Writer, br *bufio.Reader, req *Request) (*Response, error) {
	if err := req.Write(conn); err != nil {
		return nil, err
	}
	return ReadResponse(br)
}

// SplitHostPort separates "host:port" with a default port when none is
// present. Unlike net.SplitHostPort it never errors on a bare host.
func SplitHostPort(target string, defaultPort uint16) (host string, port uint16) {
	host = target
	port = defaultPort
	if i := strings.LastIndexByte(target, ':'); i >= 0 && !strings.Contains(target[i+1:], "]") {
		if p, err := strconv.Atoi(target[i+1:]); err == nil && p > 0 && p < 65536 {
			host = target[:i]
			port = uint16(p)
		}
	}
	return host, port
}

// ParseAbsoluteURL splits an absolute-form http URL into host, port, and
// path. The super proxy receives these on every proxied GET.
func ParseAbsoluteURL(u string) (host string, port uint16, path string, err error) {
	rest, ok := strings.CutPrefix(u, "http://")
	if !ok {
		return "", 0, "", fmt.Errorf("%w: not an absolute http URL: %q", ErrMalformed, u)
	}
	hostport := rest
	path = "/"
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		hostport, path = rest[:i], rest[i:]
	}
	if hostport == "" {
		return "", 0, "", fmt.Errorf("%w: empty host in %q", ErrMalformed, u)
	}
	host, port = SplitHostPort(hostport, 80)
	return strings.ToLower(host), port, path, nil
}
