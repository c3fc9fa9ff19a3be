package httpwire

import (
	"bufio"
	"bytes"
	"maps"
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
			!maps.Equal(again.Header, want.Header) || !bytes.Equal(again.Body, want.Body) ||
			(again.Body == nil) != (want.Body == nil) {
			t.Fatalf("second parse differs:\n first %+v\nsecond %+v", want, *again)
		}
	})
}
