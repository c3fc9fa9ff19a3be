package httpwire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// readBodyOf parses a 200 response whose body is n copies of fill.
func readBodyOf(t *testing.T, fill byte, n int) *Response {
	t.Helper()
	raw := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", n, strings.Repeat(string(fill), n))
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) != n || len(resp.Body) != cap(resp.Body) {
		t.Fatalf("body of %d bytes has len %d, cap %d; want both %d", n, len(resp.Body), cap(resp.Body), n)
	}
	if n > 0 && bytes.Count(resp.Body, []byte{fill}) != n {
		t.Fatalf("body of %d %q bytes came back as %.40q...", n, fill, resp.Body)
	}
	return resp
}

// poisonReleases switches the use-after-release poison on for one test.
func poisonReleases(t *testing.T) {
	t.Helper()
	poisonOnRelease = true
	t.Cleanup(func() { poisonOnRelease = false })
}

func TestSmallBodiesAreNotPooled(t *testing.T) {
	for _, n := range []int{0, 1, minPooledBody - 1} {
		if resp := readBodyOf(t, 'a', n); resp.pooled != nil {
			t.Errorf("a %d-byte body came from the pools; only %d bytes and up should", n, minPooledBody)
		}
	}
	if resp := readBodyOf(t, 'a', minPooledBody); resp.pooled == nil {
		t.Errorf("a %d-byte body did not come from the pools", minPooledBody)
	}
}

func TestBodyClassesCoverEveryPooledSize(t *testing.T) {
	if got := bodyClass(MaxBodyBytes); got != len(bodyPools)-1 {
		t.Fatalf("the largest body files under class %d of %d", got, len(bodyPools))
	}
	for _, n := range []int{minPooledBody, minPooledBody + 1, 2*minPooledBody - 1, 2 * minPooledBody, 258 << 10, MaxBodyBytes - 1, MaxBodyBytes} {
		body, box := getBody(n)
		if len(body) != n || cap(body) != n {
			t.Errorf("getBody(%d): len %d, cap %d", n, len(body), cap(body))
		}
		if c := bodyClass(len(*box)); len(*box) < n || len(*box) < minPooledBody<<c || len(*box) >= minPooledBody<<(c+1) && len(*box) != MaxBodyBytes {
			t.Errorf("getBody(%d) sits in a %d-byte buffer filed under class %d", n, len(*box), c)
		}
		putBody(box) // must index a class that exists
	}
}

// TestMisfitBufferIsReplaced: two sizes share a class; a recycled buffer
// too short for the larger one must not be sliced past its end.
func TestMisfitBufferIsReplaced(t *testing.T) {
	if bodyClass(9000) != bodyClass(9300) {
		t.Fatal("the two sizes no longer share a class; pick others")
	}
	readBodyOf(t, 'a', 9000).Release()
	large := readBodyOf(t, 'b', 9300) // readBodyOf checks length and content
	if len(*large.pooled) < 9300 {
		t.Fatalf("a 9300-byte body sits in a %d-byte buffer", len(*large.pooled))
	}
}

// TestReleasedBufferNeverLeaksStaleBytes: a recycled buffer larger than the
// next body exposes none of what its previous user left in it.
func TestReleasedBufferNeverLeaksStaleBytes(t *testing.T) {
	first := readBodyOf(t, 'A', 8000)
	first.Release()
	second := readBodyOf(t, 'B', 5000) // same 8 KB class; readBodyOf checks len == cap and content
	if got := second.Body[:cap(second.Body)]; bytes.IndexByte(got, 'A') >= 0 {
		t.Fatal("the previous body is reachable through the new one")
	}
	if grown := append(second.Body, 'C'); &grown[0] == &second.Body[0] {
		t.Fatal("append grew the body in place, into the pooled buffer's tail")
	}
}

// TestReleasePoisonsWhenAsked: with the test hook on, a reader that kept
// the body past Release sees 0xDB, not the page.
func TestReleasePoisonsWhenAsked(t *testing.T) {
	poisonReleases(t)
	resp := readBodyOf(t, 'A', 6000)
	kept := resp.Body
	resp.Release()
	if bytes.Count(kept, []byte{0xDB}) != len(kept) {
		t.Fatalf("released body reads %.20q..., want all 0xDB", kept)
	}
}

func TestReleaseIsIdempotentAndOptional(t *testing.T) {
	var none *Response
	none.Release()
	local := NewResponse(200, bytes.Repeat([]byte{'L'}, 2*minPooledBody))
	local.Release()
	local.Release()
	if local.Body[0] != 'L' {
		t.Fatal("Release touched a body that never came from the pools")
	}

	// A second Release must not pool the buffer twice: two later readers
	// would share it.
	resp := readBodyOf(t, 'A', 6000)
	resp.Release()
	resp.Release()
	a, b := readBodyOf(t, 'B', 6000), readBodyOf(t, 'C', 6000)
	if &a.Body[0] == &b.Body[0] {
		t.Fatal("two live responses share one buffer after a double Release")
	}
}

// TestReleaseAfterBodyReplaced: an interceptor may point Body elsewhere;
// Release still recycles the buffer that was read into and leaves the
// replacement alone.
func TestReleaseAfterBodyReplaced(t *testing.T) {
	poisonReleases(t)
	resp := readBodyOf(t, 'A', 6000)
	resp.Body = []byte("replaced")
	resp.Release()
	if string(resp.Body) != "replaced" || resp.pooled != nil {
		t.Fatalf("after Release: body %q, pooled %v", resp.Body, resp.pooled)
	}
}

func TestTruncatedPooledBody(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 6000\r\n\r\nshort"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}
