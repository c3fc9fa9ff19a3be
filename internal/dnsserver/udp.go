package dnsserver

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"

	"github.com/tftproject/tft/internal/simnet"
)

// ServeUDP pumps DNS datagrams from a real socket through a handler until
// the socket is closed. It is the wall-clock front end used by cmd/authdns
// and the real-network examples; the handler is the same one the simnet
// fabric calls.
func ServeUDP(pc net.PacketConn, handler simnet.DNSHandler) error {
	buf := make([]byte, 4096)
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		src := addrOf(addr)
		query := make([]byte, n)
		copy(query, buf[:n])
		go func(query []byte, raddr net.Addr, src netip.Addr) {
			if resp := handler(src, query); resp != nil {
				pc.WriteTo(resp, raddr)
			}
		}(query, addr, src)
	}
}

func addrOf(a net.Addr) netip.Addr {
	if ua, ok := a.(*net.UDPAddr); ok {
		if ip, ok := netip.AddrFromSlice(ua.IP); ok {
			return ip.Unmap()
		}
	}
	return netip.Addr{}
}

// UDPExchanger implements the Exchanger interface over real UDP sockets,
// letting Resolver instances run against network DNS servers (cmd/authdns).
type UDPExchanger struct {
	// Port is the server's UDP port (default 53; loopback demos use high
	// ports).
	Port uint16
	// BindSrc binds the local socket to the src address handed to
	// ExchangeDNS. On loopback, distinct 127.x.y.z sources let the
	// authoritative server discriminate callers — which the d2 gate
	// requires.
	BindSrc bool
	// Timeout per exchange (default 3s).
	Timeout time.Duration
}

// ExchangeDNS implements Exchanger.
func (u *UDPExchanger) ExchangeDNS(src, dst netip.Addr, query []byte) ([]byte, error) {
	port := u.Port
	if port == 0 {
		port = 53
	}
	timeout := u.Timeout
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	if u.BindSrc && src.IsValid() {
		d.LocalAddr = &net.UDPAddr{IP: src.AsSlice()}
	}
	conn, err := d.Dial("udp", fmt.Sprintf("%s:%d", dst, port))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(simnet.Real{}.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := conn.Write(query); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}
