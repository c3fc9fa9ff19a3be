package proxynet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"

	"github.com/tftproject/tft/internal/geo"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/trace"
)

// Options are the per-request selection controls a measurement client uses.
type Options struct {
	// Country pins exit-node selection to a country (-country-XX).
	Country geo.CountryCode
	// Session pins subsequent requests to the same exit node (-session-N).
	Session string
	// RemoteDNS makes the exit node perform DNS resolution (-dns-remote) —
	// required to observe the node's resolver at all (§2.3, §4.1).
	RemoteDNS bool
}

// Client is the measurement team's proxy client: it speaks the HTTP proxy
// protocol to the super proxy, authenticating with a parameterized
// username.
type Client struct {
	// Net dials the super proxy.
	Net Dialer
	// Src is the client machine's address.
	Src netip.Addr
	// Proxy is the super proxy's address.
	Proxy netip.Addr
	// User and Password are the zone credentials.
	User, Password string
}

// proxyAuth renders the Proxy-Authorization header value: the credentials
// are assembled and base64-encoded on the stack, and the value is the one
// allocation.
//
//tftlint:hotpath
func (c *Client) proxyAuth(o Options) string {
	var credBuf [128]byte
	p := Params{User: c.User, Country: o.Country, Session: o.Session, RemoteDNS: o.RemoteDNS}
	cred := append(append(p.appendUsername(credBuf[:0]), ':'), c.Password...)
	var valBuf [192]byte
	return string(base64.StdEncoding.AppendEncode(append(valBuf[:0], "Basic "...), cred))
}

// stampTrace attaches the context's trace header so the super proxy (and
// the exit node behind it) parent their spans under the client's probe.
func stampTrace(ctx context.Context, req *httpwire.Request) {
	if h := trace.FormatHeader(trace.FromContext(ctx)); h != "" {
		req.Header.Set(trace.HeaderName, h)
	}
}

// parseProxyAuth decodes a Proxy-Authorization header into Params, whose
// strings are substrings of the one decoded credential string.
//
//tftlint:hotpath
func parseProxyAuth(v string) (Params, bool) {
	enc, ok := strings.CutPrefix(v, "Basic ")
	if !ok {
		return Params{}, false
	}
	var buf [128]byte
	raw, err := base64.StdEncoding.AppendDecode(buf[:0], []byte(enc))
	if err != nil {
		return Params{}, false
	}
	colon := bytes.IndexByte(raw, ':')
	if colon <= 0 {
		return Params{}, false
	}
	return ParseUsername(string(raw[:colon])), true
}

// Get fetches url (absolute http:// form) through the proxy and returns the
// response plus the parsed debug headers. Proxy-level failures (NXDOMAIN at
// the peer, no peers, fetch errors) are reported in Debug.Err with a
// non-nil response, mirroring how Luminati surfaces them; the error return
// covers transport problems only.
func (c *Client) Get(ctx context.Context, o Options, url string) (*httpwire.Response, *Debug, error) {
	// A URL the proxy would refuse costs no connection: under chaos the
	// fault schedule is a function of dial order.
	host, _, _, err := httpwire.ParseAbsoluteURL(url)
	if err != nil {
		return nil, nil, err
	}
	conn, err := c.Net.Dial(ctx, c.Src, c.Proxy, ProxyPort)
	if err != nil {
		return nil, nil, fmt.Errorf("proxynet: dialing super proxy: %w", err)
	}
	defer conn.Close()
	req := httpwire.NewRequest("GET", url)
	req.Header.Set("Proxy-Authorization", c.proxyAuth(o))
	stampTrace(ctx, req)
	req.Header.Set("Host", host)
	resp, err := httpwire.Exchange(conn, req)
	if err != nil {
		return nil, nil, err
	}
	return resp, ParseDebug(&resp.Header), nil
}

// Connect opens a CONNECT tunnel to target ("ip:443") through the proxy.
// On success the returned connection is the raw tunnel; the caller drives
// the TLS handshake (§2.3) and must close it — Close is also what hands the
// tunnel's pooled reader back.
func (c *Client) Connect(ctx context.Context, o Options, target string) (net.Conn, *Debug, error) {
	conn, err := c.Net.Dial(ctx, c.Src, c.Proxy, ProxyPort)
	if err != nil {
		return nil, nil, fmt.Errorf("proxynet: dialing super proxy: %w", err)
	}
	req := httpwire.NewRequest("CONNECT", target)
	req.Header.Set("Proxy-Authorization", c.proxyAuth(o))
	stampTrace(ctx, req)
	tunnel, resp, err := connectHandshake(conn, req)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	dbg := ParseDebug(&resp.Header)
	if tunnel == nil {
		conn.Close()
		if dbg.Err == "" {
			dbg.Err = resp.Reason
		}
		return nil, dbg, fmt.Errorf("proxynet: CONNECT failed: %d %s", resp.StatusCode, dbg.Err)
	}
	return tunnel, dbg, nil
}

// connectHandshake sends the CONNECT req on conn and reads the response.
// On a 200 it returns the tunnel: conn read through the response's reader,
// which may already hold the first bytes the far end sent, and which the
// tunnel Puts on Close. On any other status the tunnel is nil. Either
// way, the caller still owns conn.
func connectHandshake(conn net.Conn, req *httpwire.Request) (*bufferedConn, *httpwire.Response, error) {
	br := httpwire.GetReader(conn)
	resp, err := httpwire.RoundTrip(conn, br, req)
	if err != nil || resp.StatusCode != 200 {
		httpwire.PutReader(br)
		return nil, resp, err
	}
	return &bufferedConn{Conn: conn, br: br}, resp, nil
}

// bufferedConn drains any bytes the response reader buffered before handing
// reads to the underlying connection. The reader is pooled: Close returns it
// exactly once, and mu keeps a Close on one goroutine from releasing it under
// a Read on another.
type bufferedConn struct {
	net.Conn
	mu sync.Mutex
	br *bufio.Reader // nil once closed
}

func (b *bufferedConn) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.br == nil {
		return 0, io.ErrClosedPipe
	}
	return b.br.Read(p)
}

// Close closes the tunnel first, which fails any Read in flight and so
// frees mu, then releases the reader.
func (b *bufferedConn) Close() error {
	err := b.Conn.Close()
	b.mu.Lock()
	if b.br != nil {
		httpwire.PutReader(b.br)
		b.br = nil
	}
	b.mu.Unlock()
	return err
}
