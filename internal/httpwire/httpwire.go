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
	"bytes"
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

// Header is a message's header fields, keys canonicalized. The zero value
// is an empty header ready for Set. It is a value: assigning or passing a
// Header copies it, and the copy shares nothing with the original that Set
// or Del on either side can disturb.
//
// Fields are kept sorted by key, which is the order Write puts them on the
// wire. The first inlineFields of them live in the struct itself, so a
// message with the usual handful of headers carries them in the allocation
// that holds the message.
type Header struct {
	n      int
	inline [inlineFields]field
	more   []field // fields past the inline ones, in order
}

// inlineFields covers every message the simulation sends: a proxied
// response carries four headers at most (Content-Length, Content-Type and
// the two X-Hola-* debug headers), a request three.
const inlineFields = 4

type field struct{ key, val string }

// at returns the i-th field in key order, 0 <= i < h.n.
func (h *Header) at(i int) *field {
	if i < inlineFields {
		return &h.inline[i]
	}
	return &h.more[i-inlineFields]
}

// find returns the position of canonical key k, or the position it would
// be inserted at.
func (h *Header) find(k string) (int, bool) {
	for i := 0; i < h.n; i++ {
		if f := h.at(i); f.key >= k {
			return i, f.key == k
		}
	}
	return h.n, false
}

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

// Set stores a header value, replacing any value already under the key.
func (h *Header) Set(k, v string) {
	k = CanonicalKey(k)
	i, found := h.find(k)
	if found {
		h.at(i).val = v
		return
	}
	if h.n >= inlineFields {
		h.more = append(h.more, field{})
	}
	h.n++
	for j := h.n - 1; j > i; j-- {
		*h.at(j) = *h.at(j - 1)
	}
	*h.at(i) = field{k, v}
}

// Get retrieves a header value ("" when absent).
func (h *Header) Get(k string) string {
	if i, found := h.find(CanonicalKey(k)); found {
		return h.at(i).val
	}
	return ""
}

// Del removes a header.
func (h *Header) Del(k string) {
	i, found := h.find(CanonicalKey(k))
	if !found {
		return
	}
	for j := i; j < h.n-1; j++ {
		*h.at(j) = *h.at(j + 1)
	}
	h.n--
	*h.at(h.n) = field{}
	if h.n >= inlineFields {
		h.more = h.more[:h.n-inlineFields]
	}
}

// Clone returns a copy that shares no storage with h.
func (h *Header) Clone() Header {
	out := *h
	out.more = slices.Clone(h.more)
	return out
}

// write emits the headers in key order — deterministic wire bytes.
func (h *Header) write(w *bufio.Writer) { h.writeWith(w, "", "") }

// writeWith emits the headers plus one override entry — replacing any
// existing value under the same key — in a single sorted pass, so the
// serializers can stamp Content-Length without copying the header per
// message.
func (h *Header) writeWith(w *bufio.Writer, oKey, oVal string) {
	pending := oKey != ""
	for i := 0; i < h.n; i++ {
		f := h.at(i)
		if pending && f.key >= oKey {
			writeField(w, oKey, oVal)
			pending = false
		}
		if f.key != oKey {
			writeField(w, f.key, f.val)
		}
	}
	if pending {
		writeField(w, oKey, oVal)
	}
}

func writeField(w *bufio.Writer, k, v string) {
	w.WriteString(k)
	w.WriteString(": ")
	w.WriteString(v)
	w.WriteString("\r\n")
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

// NewRequest builds a request with an empty header.
func NewRequest(method, target string) *Request {
	return &Request{Method: method, Target: target, Proto: "HTTP/1.1"}
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
	// shared says nobody ever writes Body's bytes (see MarkShared).
	shared bool
}

// NewResponse builds a response with standard reason text and body.
func NewResponse(code int, body []byte) *Response {
	return &Response{StatusCode: code, Reason: ReasonPhrase(code), Proto: "HTTP/1.1", Body: body}
}

// MarkShared declares that nobody ever stores into r.Body's bytes: not the
// caller, not whoever the response reaches. Write may then queue a body of
// minPooledBody bytes or more on a stream by reference (a fabric stream's
// WriteShared) instead of copying it, and the reader at the far end takes
// the same bytes by reference in turn, its response marked as this one is.
// The origin marks content.Object's canonical bodies with it; nothing else
// may. A holder may still point Body at new bytes — an interceptor's
// rewrite — and those bytes fall under the same promise.
func (r *Response) MarkShared() { r.shared = true }

// sharedWriter is a stream that can queue bytes by reference:
// simnet.Stream.
type sharedWriter interface {
	WriteShared(p []byte) (int, error)
}

// sharedTaker is a stream that can hand queued bytes over by reference:
// simnet.Stream.
type sharedTaker interface {
	TakeShared(n int) []byte
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

// Write serializes the response. Content-Length is always set. A shared
// body (see MarkShared) of minPooledBody bytes or more bound for a stream
// that takes bytes by reference is queued there after the head is flushed,
// not copied.
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
	if r.shared && len(r.Body) >= minPooledBody {
		if sw, ok := w.(sharedWriter); ok {
			if err := bw.Flush(); err != nil {
				return err
			}
			_, err := sw.WriteShared(r.Body)
			return err
		}
	}
	bw.Write(r.Body)
	return bw.Flush()
}

func protoOr(p string) string {
	if p == "" {
		return "HTTP/1.1"
	}
	return p
}

// headScratch is the stack buffer a message head is assembled in before its
// one conversion to a string. Every head the simulation produces fits (the
// longest, a proxied GET with credentials and a trace header, is under 300
// bytes); a longer one spills to the heap.
const headScratch = 768

// ReadRequest parses one request from br.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	var scratch [headScratch]byte
	head, err := appendLine(scratch[:0], br)
	if err != nil {
		return nil, err
	}
	// METHOD SP TARGET SP PROTO, cut by position so the same cuts apply to
	// the string the head becomes.
	sp1 := bytes.IndexByte(head, ' ')
	sp2 := -1
	if sp1 >= 0 {
		sp2 = bytes.IndexByte(head[sp1+1:], ' ')
	}
	if sp2 < 0 || sp1 == 0 || sp2 == 0 || !bytes.HasPrefix(head[sp1+sp2+2:], []byte("HTTP/")) {
		return nil, malformed("request line", head)
	}
	sp2 += sp1 + 1
	end := len(head)
	if head, err = appendFields(head, br); err != nil {
		return nil, err
	}
	s := string(head)
	req := &Request{Method: s[:sp1], Target: s[sp1+1 : sp2], Proto: s[sp2+1 : end]}
	req.Header.setFields(s[end:])
	n, err := contentLength(&req.Header)
	if err != nil {
		return nil, err
	}
	if n >= 0 {
		req.Body = make([]byte, n)
		if _, err := io.ReadFull(br, req.Body); err != nil {
			return nil, err
		}
	}
	return req, nil
}

// ReadResponse parses one response from br.
func ReadResponse(br *bufio.Reader) (*Response, error) { return readResponse(br, nil) }

// readResponse is ReadResponse from a reader that wraps src, when src is
// non-nil: a body src holds as a shared segment, with nothing of it in br,
// is taken by reference (see Response.readBody).
func readResponse(br *bufio.Reader, src sharedTaker) (*Response, error) {
	var scratch [headScratch]byte
	head, err := appendLine(scratch[:0], br)
	if err != nil {
		return nil, err
	}
	// PROTO SP CODE [SP REASON]
	sp1 := bytes.IndexByte(head, ' ')
	if sp1 < 0 || !bytes.HasPrefix(head, []byte("HTTP/")) {
		return nil, malformed("status line", head)
	}
	end := len(head)
	sp2 := end // no reason phrase: the code runs to the end of the line
	if i := bytes.IndexByte(head[sp1+1:], ' '); i >= 0 {
		sp2 = sp1 + 1 + i
	}
	code, err := strconv.Atoi(string(head[sp1+1 : sp2]))
	if err != nil || code < 100 || code > 599 {
		return nil, malformed("status", head[sp1+1:sp2])
	}
	if head, err = appendFields(head, br); err != nil {
		return nil, err
	}
	s := string(head)
	resp := &Response{StatusCode: code, Proto: s[:sp1]}
	if sp2 < end {
		resp.Reason = s[sp2+1 : end]
	}
	resp.Header.setFields(s[end:])
	n, err := contentLength(&resp.Header)
	if err != nil {
		return nil, err
	}
	if n >= 0 {
		if err := resp.readBody(br, n, src); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// malformed builds the ErrMalformed for a rejected piece of a head. Outlined
// so the fmt machinery stays off the parsing path; it copies piece, so the
// callers' stack buffers do not escape through it.
func malformed(what string, piece []byte) error {
	return fmt.Errorf("%w: %s %q", ErrMalformed, what, string(piece))
}

// appendLine reads one line from br, without its line ending, onto dst. A
// line is whatever bufio.Reader.ReadLine says it is: up to LF, less one CR
// before it, or up to EOF. One longer than MaxHeaderBytes is ErrHeaderTooBig.
//
//tftlint:hotpath
func appendLine(dst []byte, br *bufio.Reader) ([]byte, error) {
	chunk, isPrefix, err := br.ReadLine()
	if err != nil {
		return dst, err
	}
	if !isPrefix {
		// The line fits the bufio buffer, as every line in the simulation
		// does.
		if len(chunk) > MaxHeaderBytes {
			return dst, ErrHeaderTooBig
		}
		return append(dst, chunk...), nil
	}
	start := len(dst)
	dst = append(dst, chunk...)
	for {
		chunk, isPrefix, err = br.ReadLine()
		if err != nil {
			return dst, err
		}
		dst = append(dst, chunk...)
		if len(dst)-start > MaxHeaderBytes {
			return dst, ErrHeaderTooBig
		}
		if !isPrefix {
			return dst, nil
		}
	}
}

// appendFields reads a header block from br through its blank line and
// appends it to head as "\nLINE" per field line. LF cannot occur inside a
// line, so setFields can cut the block apart again. Each line is checked
// as it arrives — a peer that sends a bad line is turned away there, not
// after the rest of its block has been read — and the limits are the
// block's own: the start line already in head does not count against them.
//
//tftlint:hotpath
func appendFields(head []byte, br *bufio.Reader) ([]byte, error) {
	total := 0
	for i := 0; ; i++ {
		if i > maxHeaderLines {
			return head, ErrHeaderTooBig
		}
		head = append(head, '\n')
		start := len(head)
		var err error
		if head, err = appendLine(head, br); err != nil {
			return head, err
		}
		line := head[start:]
		if len(line) == 0 {
			return head[:start-1], nil
		}
		total += len(line)
		if total > MaxHeaderBytes {
			return head, ErrHeaderTooBig
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || bytes.IndexByte(line[:colon], ' ') >= 0 || bytes.IndexByte(line[:colon], '\t') >= 0 {
			return head, malformed("header line", line)
		}
	}
}

// setFields fills h from a block appendFields accepted, now a string: keys
// and values are substrings of it. A repeated key keeps its last value.
func (h *Header) setFields(block string) {
	for block != "" {
		line := block[1:] // past the LF that opens each line
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, block = line[:i], line[i:]
		} else {
			block = ""
		}
		k, v, _ := strings.Cut(line, ":")
		h.Set(k, strings.TrimSpace(v))
	}
}

// contentLength is the body length h's Content-Length announces, -1 when
// there is no such header. The value must be RFC 9110's 1*DIGIT, as
// net/http requires: no sign, no space, nothing but ASCII digits.
func contentLength(h *Header) (int, error) {
	cl := h.Get("Content-Length")
	if cl == "" {
		return -1, nil
	}
	for i := 0; i < len(cl); i++ {
		if cl[i] < '0' || cl[i] > '9' {
			return 0, fmt.Errorf("%w: Content-Length %q", ErrMalformed, cl)
		}
	}
	n, err := strconv.Atoi(cl) // digits alone: fails only past the int range
	if err != nil {
		return 0, fmt.Errorf("%w: Content-Length %q", ErrMalformed, cl)
	}
	if n > MaxBodyBytes {
		return 0, ErrBodyTooBig
	}
	return n, nil
}

// readBody reads an n-byte body from br. A body of minPooledBody bytes or
// more is taken by reference when src holds all of it as a shared segment
// and br holds none of it: the response is then marked shared, as the one
// written was. Otherwise it is read into a buffer from bodyPools, whose box
// the response keeps (see Release); a smaller body is a plain allocation.
func (r *Response) readBody(br *bufio.Reader, n int, src sharedTaker) error {
	if n < minPooledBody {
		r.Body = make([]byte, n)
		_, err := io.ReadFull(br, r.Body)
		return err
	}
	if src != nil && br.Buffered() == 0 {
		if b := src.TakeShared(n); b != nil {
			r.Body, r.shared = b, true
			return nil
		}
	}
	r.Body, r.pooled = getBody(n)
	if _, err := io.ReadFull(br, r.Body); err != nil {
		r.Release()
		return err
	}
	return nil
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
// present. Unlike net.SplitHostPort it never errors on a bare host. An IPv6
// literal comes back without its brackets, with a port or without, and a
// bare address with more than one colon is a host with no port.
func SplitHostPort(target string, defaultPort uint16) (host string, port uint16) {
	host, port = target, defaultPort
	if i := strings.LastIndexByte(target, ':'); i >= 0 && (strings.IndexByte(target[:i], ':') < 0 || strings.HasSuffix(target[:i], "]")) {
		if p, err := strconv.Atoi(target[i+1:]); err == nil && p > 0 && p < 65536 {
			host, port = target[:i], uint16(p)
		}
	}
	if len(host) >= 2 && host[0] == '[' && host[len(host)-1] == ']' {
		host = host[1 : len(host)-1]
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
