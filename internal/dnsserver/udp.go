package dnsserver

import (
	"errors"
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

// udpTimeout bounds one exchange over a real socket.
const udpTimeout = 2 * time.Second

// UDPExchanger implements the Exchanger interface over real UDP sockets,
// letting Resolver instances run against network DNS servers such as
// cmd/authdns; NewUDPResolver builds the resolver around one.
type UDPExchanger struct {
	// Port is the server's UDP port.
	Port uint16
	// BindSrc binds the local socket to the src address handed to
	// ExchangeDNS. On loopback, distinct 127.x.y.z sources let the
	// authoritative server discriminate callers — which the d2 gate
	// requires.
	BindSrc bool
}

// NewUDPResolver builds an honest resolver at addr whose queries go over
// real UDP to server. A valid egress is bound as the source of every query,
// so it is the address the authority logs; the zero egress leaves the
// source to the operating system.
func NewUDPResolver(addr netip.Addr, server netip.AddrPort, egress netip.Addr) *Resolver {
	r := NewResolver(addr, &UDPExchanger{Port: server.Port(), BindSrc: egress.IsValid()},
		func(string) (netip.Addr, bool) { return server.Addr(), true })
	if egress.IsValid() {
		r.EgressFor = func(netip.Addr) netip.Addr { return egress }
	}
	return r
}

// ExchangeDNS implements Exchanger.
func (u *UDPExchanger) ExchangeDNS(src, dst netip.Addr, query []byte) ([]byte, error) {
	d := net.Dialer{Timeout: udpTimeout}
	if u.BindSrc && src.IsValid() {
		d.LocalAddr = &net.UDPAddr{IP: src.AsSlice()}
	}
	conn, err := d.Dial("udp", netip.AddrPortFrom(dst, u.Port).String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(simnet.Real{}.Now().Add(udpTimeout)); err != nil {
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
