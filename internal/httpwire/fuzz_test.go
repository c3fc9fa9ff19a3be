package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadRequest: the request parser must never panic, and accepted
// requests must survive a write/read round trip.
func FuzzReadRequest(f *testing.F) {
	f.Add([]byte("GET http://d1.example.org/object.html HTTP/1.1\r\nHost: d1.example.org\r\n\r\n"))
	f.Add([]byte("CONNECT 192.0.2.1:443 HTTP/1.1\r\n\r\n"))
	f.Add([]byte("REGISTER z0001 HTTP/1.1\r\nX-Tft-Country: DE\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := req.Write(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		req2, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-decode failed: %v\nwire: %q", err, buf.Bytes())
		}
		if req2.Method != req.Method || req2.Target != req.Target || !bytes.Equal(req2.Body, req.Body) {
			t.Fatalf("unstable round trip: %+v vs %+v", req, req2)
		}
	})
}

// FuzzReadResponse mirrors FuzzReadRequest for responses, and checks the
// pooled body path: releasing a response and parsing the same bytes again,
// now into a recycled (and, under the test hook, poisoned) buffer, must
// give the same response.
func FuzzReadResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"))
	f.Add([]byte("HTTP/1.1 502 Bad Gateway\r\nX-Hola-Unblocker-Debug: dns_error peer NXDOMAIN\r\n\r\n"))
	f.Add(append([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n"), bytes.Repeat([]byte("body"), 1250)...))
	poisonOnRelease = true
	f.Cleanup(func() { poisonOnRelease = false })
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := resp.Write(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		resp2, err := ReadResponse(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if resp2.StatusCode != resp.StatusCode || !bytes.Equal(resp2.Body, resp.Body) {
			t.Fatalf("unstable round trip")
		}

		want := *resp
		want.Body = bytes.Clone(resp.Body)
		resp.Release()
		resp2.Release()
		again, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("second parse of accepted input failed: %v", err)
		}
		if again.StatusCode != want.StatusCode || again.Reason != want.Reason || again.Proto != want.Proto ||
			!headerIs(&again.Header, headerMap(&want.Header)) || !bytes.Equal(again.Body, want.Body) ||
			(again.Body == nil) != (want.Body == nil) {
			t.Fatalf("second parse differs:\n first %+v\nsecond %+v", want, *again)
		}
	})
}

// headerMap is h as the map the header used to be.
func headerMap(h *Header) map[string]string {
	m := make(map[string]string, h.n)
	for i := 0; i < h.n; i++ {
		m[h.at(i).key] = h.at(i).val
	}
	return m
}

// headerIs reports whether h holds exactly the fields of want, in key order.
func headerIs(h *Header, want map[string]string) bool {
	if h.n != len(want) {
		return false
	}
	for i := 0; i < h.n; i++ {
		f := h.at(i)
		if v, ok := want[f.key]; !ok || v != f.val || (i > 0 && h.at(i-1).key >= f.key) {
			return false
		}
	}
	return true
}

// errClass names the kind of failure a parse ended in, "" for none.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrHeaderTooBig):
		return "header too big"
	case errors.Is(err, ErrBodyTooBig):
		return "body too big"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	case errors.Is(err, io.EOF):
		return "EOF"
	}
	return "other: " + err.Error()
}

// parseCounting runs parse over data through a bufio.Reader of the given
// size and reports how many bytes of data the parse took.
func parseCounting(data []byte, size int, parse func(*bufio.Reader) error) (taken int, err error) {
	src := bytes.NewReader(data)
	br := bufio.NewReaderSize(src, size)
	err = parse(br)
	return len(data) - src.Len() - br.Buffered(), err
}

// FuzzHeadEquivalence holds the one-string head parser to the line-at-a-time
// parser it replaced (oracle_test.go): on any bytes, through any reader
// size, the two agree on accept or reject, on the class of error, on every
// field and the body, and on how many bytes they took — a parser that takes
// a different number of bytes from the one its peer runs is how a request
// gets smuggled. Where both accept, net/http is a second opinion on where
// the message ends, for the framing httpwire implements: a body exactly as
// long as Content-Length says. The framings it does not implement are left
// out of that comparison, not papered over: chunked transfer coding, a
// response body delimited by the close of the connection, and the statuses
// (1xx, 204, 304) that net/http gives no body whatever Content-Length says.
// Nothing in the repository emits any of the three.
func FuzzHeadEquivalence(f *testing.F) {
	lines := func(n int) string { return strings.Repeat("X-Filler: v\r\n", n) }
	for _, seed := range []struct {
		data string
		size uint8
	}{
		{"GET http://d1.example.org/ HTTP/1.1\r\nHost: d1.example.org\r\nProxy-Authorization: Basic abc\r\n\r\n", 0},
		{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Hola-Timeline-Debug: v1 zid=z1\r\n\r\nhi", 0},
		// Bare LF line endings.
		{"GET / HTTP/1.1\nHost: x\n\n", 0},
		{"HTTP/1.1 404 Not Found\nContent-Length: 1\n\nx", 0},
		// CR as the last byte a 16-byte reader can hold, LF in the next fill.
		{"GET /012 HTTP/1\r\nHost: abcdefghi\r\n\r\n", 1},
		{"HTTP/1.1 200 OK\r\nA23456789012: v\r\r\n\r\n", 1},
		// A line one byte longer than the default reader.
		{"GET /" + strings.Repeat("a", 4097-len("GET / HTTP/1.1")) + " HTTP/1.1\r\nHost: x\r\n\r\n", 0},
		{"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("b", 4097) + "\r\n\r\n", 0},
		// The most header lines accepted, and one more.
		{"GET / HTTP/1.1\r\n" + lines(128) + "\r\n", 0},
		{"GET / HTTP/1.1\r\n" + lines(129) + "\r\n", 0},
		{"HTTP/1.1 200 OK\r\n" + lines(129) + "\r\n", 0},
		// Content-Length twice: agreeing, disagreeing.
		{"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabcdef", 0},
		{"HTTP/1.1 200 OK\r\nContent-Length: 3\r\ncontent-length: 1\r\n\r\nabcdef", 0},
		// Content-Length with a sign: RFC 9110 and net/http allow digits
		// alone.
		{"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\nhi", 0},
		{"POST / HTTP/1.1\r\nContent-Length: -0\r\n\r\n", 0},
		// A header block the connection closes on.
		{"GET / HTTP/1.1\r\nHost: x", 0},
		{"GET / HTTP/1.1\r\nHost: x\r\n", 0},
		{"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r", 0},
		// What net/http frames differently.
		{"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", 0},
		{"HTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\nabc", 0},
	} {
		f.Add([]byte(seed.data), seed.size)
	}
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		// 0 is the size the pools hand out; anything else is a small
		// reader, down to the 16 bytes bufio allows, so that lines and
		// CRLFs straddle fills.
		brSize := 4096
		if size > 0 {
			brSize = 15 + int(size)
		}

		var req *Request
		var oreq *oracleMsg
		taken, err := parseCounting(data, brSize, func(br *bufio.Reader) (err error) { req, err = ReadRequest(br); return })
		otaken, oerr := parseCounting(data, brSize, func(br *bufio.Reader) (err error) { oreq, err = oracleReadRequest(br); return })
		if errClass(err) != errClass(oerr) || taken != otaken {
			t.Fatalf("request: parser took %d bytes, err %v; oracle took %d bytes, err %v", taken, err, otaken, oerr)
		}
		if err == nil {
			if req.Method != oreq.a || req.Target != oreq.b || req.Proto != oreq.c ||
				!headerIs(&req.Header, oreq.header) || !bytes.Equal(req.Body, oreq.body) || (req.Body == nil) != (oreq.body == nil) {
				t.Fatalf("request differs:\nparser %+v\noracle %+v", req, oreq)
			}
			if end, ok := netHTTPRequestEnd(data); ok && end != taken {
				t.Fatalf("request ends at byte %d, net/http says %d", taken, end)
			}
		}

		var resp *Response
		var oresp *oracleMsg
		taken, err = parseCounting(data, brSize, func(br *bufio.Reader) (err error) { resp, err = ReadResponse(br); return })
		otaken, oerr = parseCounting(data, brSize, func(br *bufio.Reader) (err error) { oresp, err = oracleReadResponse(br); return })
		if errClass(err) != errClass(oerr) || taken != otaken {
			t.Fatalf("response: parser took %d bytes, err %v; oracle took %d bytes, err %v", taken, err, otaken, oerr)
		}
		if err == nil {
			if resp.Proto != oresp.a || strconv.Itoa(resp.StatusCode) != oresp.b || resp.Reason != oresp.c ||
				!headerIs(&resp.Header, oresp.header) || !bytes.Equal(resp.Body, oresp.body) || (resp.Body == nil) != (oresp.body == nil) {
				t.Fatalf("response differs:\nparser %+v\noracle %+v", resp, oresp)
			}
			if end, ok := netHTTPResponseEnd(data); ok && end != taken {
				t.Fatalf("response ends at byte %d, net/http says %d", taken, end)
			}
			resp.Release()
		}
	})
}

// netHTTPRequestEnd is where net/http says the request at the head of data
// ends; ok is false when net/http rejects it or frames it by a rule
// httpwire does not implement.
func netHTTPRequestEnd(data []byte) (end int, ok bool) {
	var hr *http.Request
	end, err := parseCounting(data, 4096, func(br *bufio.Reader) (err error) {
		if hr, err = http.ReadRequest(br); err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, hr.Body)
		return err
	})
	return end, err == nil && len(hr.TransferEncoding) == 0
}

// netHTTPResponseEnd is netHTTPRequestEnd for a response.
func netHTTPResponseEnd(data []byte) (end int, ok bool) {
	var hr *http.Response
	end, err := parseCounting(data, 4096, func(br *bufio.Reader) (err error) {
		if hr, err = http.ReadResponse(br, nil); err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, hr.Body)
		return err
	})
	if err != nil || len(hr.TransferEncoding) > 0 || hr.ContentLength < 0 {
		return 0, false
	}
	bodiless := hr.StatusCode/100 == 1 || hr.StatusCode == 204 || hr.StatusCode == 304
	return end, !bodiless
}
