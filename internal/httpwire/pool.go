package httpwire

import (
	"bufio"
	"io"
	"math/bits"
	"sync"
)

// readerPool recycles the bufio.Readers each connection wraps around its
// read side. A proxied probe crosses three hops and every hop used to
// allocate a fresh 4KB reader; at crawl scale that churn dominated the
// allocation profile, so parsing paths borrow readers here instead.
var readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// GetReader returns a pooled bufio.Reader reading from r. Pair it with
// PutReader when the connection's parsing is finished. A reader that
// outlives the call (handed to a tunnel, stored on a connection) needs an
// owner that Puts it exactly once when the connection closes, as
// proxynet's CONNECT tunnel does; without one it must stay out of the pool.
func GetReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader returns br to the pool. The caller must not touch br again;
// any bytes still buffered are discarded.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// ReadRequestFrom reads one request from r through a pooled reader that
// goes back before it returns: for a connection nothing reads through a
// buffer afterwards, since bytes buffered past the request go with it.
func ReadRequestFrom(r io.Reader) (*Request, error) {
	br := GetReader(r)
	req, err := ReadRequest(br)
	PutReader(br)
	return req, err
}

// Exchange writes req on rw and reads the response through a pooled reader
// that goes back before it returns: one request/response exchange on a
// connection nothing reads through a buffer afterwards. On a stream that
// hands bytes over by reference (a fabric stream), a shared body crosses
// that way (see Response.MarkShared).
func Exchange(rw io.ReadWriter, req *Request) (*Response, error) {
	if err := req.Write(rw); err != nil {
		return nil, err
	}
	br := GetReader(rw)
	src, _ := rw.(sharedTaker)
	resp, err := readResponse(br, src)
	PutReader(br)
	return resp, err
}

// writerPool recycles the bufio.Writers Request.Write and Response.Write
// serialize through. Writers never escape those calls, so pooling is
// invisible to callers.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

func getWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}

// minPooledBody is the smallest response body that comes from bodyPools.
// Below it (every DNS and monitoring probe page, every proxy error) a plain
// make is cheaper than the pool round trip, and nobody has to Release.
const minPooledBody = 4 << 10

// bodyPools recycles the buffers ReadResponse reads large bodies into: a
// proxied §5.1 object is read whole at the exit node and again at the
// client, and without the pools each of those is a fresh allocation the
// size of the object. Classes are powers of two: bodyPools[c] holds buffers
// of minPooledBody<<c bytes up to, not including, twice that. The last of
// the twelve, 4 KB << 11, is MaxBodyBytes alone
// (TestBodyClassesCoverEveryPooledSize files a buffer that large).
var bodyPools [12]sync.Pool

// bodyClass is the index of the pool a buffer of n bytes belongs to.
func bodyClass(n int) int { return bits.Len(uint(n)/minPooledBody) - 1 }

// poisonOnRelease makes Release overwrite a buffer before pooling it, so
// that a reader still holding the body sees garbage at once rather than
// whenever the buffer's next user happens to fill it. Tests switch it on
// around whole crawls; nothing else may.
var poisonOnRelease bool

// getBody returns an n-byte body, n >= minPooledBody, and the pool box of
// the buffer it is the head of. The body's capacity is clipped to its
// length: whatever the buffer's previous user left beyond it is out of
// reach, and an append reallocates.
//
// A miss allocates exactly n bytes, so a reader that never releases pays
// what a plain make would. A pooled buffer of the right class but too short
// is dropped for a fresh one of n bytes: a class that sees several sizes
// ends up holding buffers that fit the largest, instead of missing on it
// for ever.
func getBody(n int) ([]byte, *[]byte) {
	box, _ := bodyPools[bodyClass(n)].Get().(*[]byte)
	switch {
	case box == nil:
		b := make([]byte, n)
		box = &b
	case len(*box) < n:
		*box = make([]byte, n)
	}
	return (*box)[:n:n], box
}

// Release returns the buffer behind a body that ReadResponse drew from the
// body pools; the bytes of that body — r.Body and every slice of it — must
// not be read afterwards. Call it once the response is fully consumed:
// forwarded, compared, or copied from. It does nothing for a response whose
// body was small enough to be allocated plainly, for one built with
// NewResponse, for a shared body (one taken by reference, or marked with
// MarkShared: every holder along the chain may still read those bytes, and
// no pool owns them), for a nil response, or when called a second time, and
// skipping it is always safe: the garbage collector takes the buffer
// instead.
//
// The buffer released is the one that was read into, even when r.Body has
// since been replaced (an interceptor rewriting the page).
func (r *Response) Release() {
	if r == nil || r.pooled == nil || r.shared {
		return
	}
	putBody(r.pooled)
	r.pooled = nil
}

// putBody returns a getBody buffer to the pool of its size class.
func putBody(box *[]byte) {
	b := *box
	if poisonOnRelease {
		// Doubling copies rather than a byte loop: tests release hundreds
		// of megabytes, under coverage instrumentation when fuzzing.
		b[0] = 0xDB
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	bodyPools[bodyClass(len(b))].Put(box)
}
