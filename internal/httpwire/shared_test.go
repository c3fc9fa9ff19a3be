package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/simnet"
)

// TestContentLengthIsDigitsOnly: a Content-Length is RFC 9110's 1*DIGIT,
// as net/http reads it. A sign, a space inside, a base prefix or an
// underscore makes the message malformed; leading zeros are digits.
func TestContentLengthIsDigitsOnly(t *testing.T) {
	for _, tc := range []struct {
		value string
		body  string
		err   error
	}{
		{"2", "hi", nil},
		{"002", "hi", nil},
		{"0", "", nil},
		{"+2", "", ErrMalformed},
		{"-0", "", ErrMalformed},
		{"-1", "", ErrMalformed},
		{"2 2", "", ErrMalformed},
		{"0x2", "", ErrMalformed},
		{"1_0", "", ErrMalformed},
		{"99999999999999999999", "", ErrMalformed},
		{"9999999999", "", ErrBodyTooBig},
	} {
		raw := "HTTP/1.1 200 OK\r\nContent-Length: " + tc.value + "\r\n\r\nhi"
		resp, err := parseResp(raw)
		if !errors.Is(err, tc.err) || (err == nil && string(resp.Body) != tc.body) {
			t.Errorf("response, Content-Length %q: %v", tc.value, err)
		}
		raw = "POST / HTTP/1.1\r\nContent-Length: " + tc.value + "\r\n\r\nhi"
		req, err := parseReq(t, raw)
		if !errors.Is(err, tc.err) || (err == nil && string(req.Body) != tc.body) {
			t.Errorf("request, Content-Length %q: %v", tc.value, err)
		}
	}
}

// TestSharedBodyCrossesByReference: over a fabric stream, a marked body of
// minPooledBody bytes or more reaches the reader as the writer's own slice,
// marked in turn, and Release leaves it alone. A body that is unmarked or
// smaller is copied, as on any other writer.
func TestSharedBodyCrossesByReference(t *testing.T) {
	poisonReleases(t)
	big := bytes.Repeat([]byte("object "), minPooledBody)
	small := big[:minPooledBody-1]
	for _, tc := range []struct {
		name   string
		body   []byte
		mark   bool
		shared bool
	}{
		{"marked", big, true, true},
		{"unmarked", big, false, false},
		{"marked but small", small, true, false},
	} {
		a, b := simnet.Pipe(0)
		resp := NewResponse(200, tc.body)
		resp.Header.Set("Content-Type", "application/javascript")
		if tc.mark {
			resp.MarkShared()
		}
		if err := resp.Write(a); err != nil {
			t.Fatal(err)
		}
		a.Close()
		br := GetReader(b)
		got, err := readResponse(br, b)
		PutReader(br)
		if err != nil || got.StatusCode != 200 || got.Header.Get("Content-Type") != "application/javascript" ||
			!bytes.Equal(got.Body, tc.body) {
			t.Fatalf("%s: read back %v, %+v", tc.name, err, got)
		}
		if same := &got.Body[0] == &tc.body[0]; same != tc.shared || got.shared != tc.shared {
			t.Errorf("%s: body by reference %v, marked %v; want %v", tc.name, same, got.shared, tc.shared)
		}
		got.Release()
		if !bytes.Equal(big, bytes.Repeat([]byte("object "), minPooledBody)) {
			t.Fatalf("%s: Release wrote into the shared body", tc.name)
		}
	}
}

// parseResp parses raw as one response.
func parseResp(raw string) (*Response, error) {
	return ReadResponse(bufio.NewReader(strings.NewReader(raw)))
}
