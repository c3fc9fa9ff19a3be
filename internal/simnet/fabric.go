package simnet

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// Errors returned by the fabric.
var (
	ErrHostUnreachable = errors.New("simnet: host unreachable")
	ErrConnRefused     = errors.New("simnet: connection refused")
	ErrNoDNSService    = errors.New("simnet: host runs no DNS service")
)

// ConnHandler serves one accepted in-memory connection. The handler owns the
// connection and must close it when done.
//
// Handlers registered with HandleTCP run on the fabric's run-to-completion
// scheduler: the accept is queued as a task and executes inline on whichever
// goroutine next blocks on a fabric stream, not on a goroutine of its own.
// A handler serves its connection in one of two ways:
//
//   - Run to completion, for client-talks-first request/response: the
//     handler must be able to finish once the dialer has written its
//     request (nested dials and reads inside the handler are fine — they
//     pump the same queue), and the request must fit the stream window so
//     the dialer never blocks mid-request with the handler wanting more.
//     Responses of any size are fine: the service-side send ring grows
//     instead of blocking.
//   - On readiness callbacks, for every other protocol — the server talks
//     first, rounds interleave with the dialer, or the request arrives only
//     once something else has happened (a CONNECT-tunneled origin's hello
//     crosses after the tunnel's 200): the handler drains its *Stream with
//     TryRead and TryWrite, arms SetNotify if it must wait, drains again
//     and returns, and answers from the callbacks, as the world's TLS
//     sites and mail server do (origin.FramedTLSSite, origin.MailServer).
//
// The goroutine-per-connection stream mode, registered below, has no
// production caller; it is kept for the benchmark harness's layer drives
// (scripts/tftbench), and goes once they register through HandleTCP.
type ConnHandler func(conn net.Conn)

// DNSHandler answers a single DNS query datagram. src is the querying host's
// address (what the paper's authoritative server logs to learn which
// resolver asked). The returned slice is the response datagram; a nil return
// simulates a dropped query. query is the caller's again when the call
// returns — a resolver recycles its query datagrams — so a handler keeps
// none of it and returns a response that shares no storage with it.
type DNSHandler func(src netip.Addr, query []byte) []byte

// Fabric is an in-memory network: a registry of hosts addressable by IP,
// offering TCP-like stream dialing and DNS-like datagram exchange. It is the
// simulation analogue of the real net package and is safe for concurrent
// use. It has no clock, and its streams take no deadline (see Pipe): a
// simulated world's time is a virtual clock that no crawl advances
// mid-session.
type Fabric struct {
	// Faults, when non-nil, is the chaos plane: every Dial matching its
	// profile may have deterministic seeded faults armed on the dialer's
	// stream end (see FaultPlane).
	Faults *FaultPlane

	// Registration is a burst that ends before the first lookup (a world is
	// built, then crawled), so lookups read a frozen copy of the host table
	// without a lock. A registration that adds a host only drops the copy,
	// under the mutex it already holds; the first lookup to find it gone
	// rebuilds it once — one O(hosts) copy per burst, not one per host.
	mu     sync.Mutex
	hosts  map[netip.Addr]*host
	frozen atomic.Pointer[map[netip.Addr]*host] // nil: hosts has changed since the last copy

	// tasks is the run queue of the run-to-completion scheduler: accepted
	// HandleTCP connections wait here and run inline on whichever
	// goroutine next blocks on one of the fabric's streams.
	tasks taskQueue
}

// service is one registered TCP listener.
type service struct {
	port   uint16
	h      ConnHandler
	stream bool // run on an own goroutine instead of the event core
}

// host is one address's services. What Dial and ExchangeDNS read is an
// immutable value behind an atomic pointer; a registration replaces it
// under mu. A host has a handful of ports at most, so a registration copies
// a short slice and a dial scans one.
type host struct {
	mu       sync.Mutex
	services atomic.Pointer[services]
}

type services struct {
	tcp []service
	dns DNSHandler
}

// listener returns the service registered on port (the zero service when
// there is none).
//
//tftlint:hotpath
func (s *services) listener(port uint16) service {
	for _, svc := range s.tcp {
		if svc.port == port {
			return svc
		}
	}
	return service{}
}

// NewFabric returns an empty network fabric.
func NewFabric() *Fabric {
	return &Fabric{hosts: make(map[netip.Addr]*host)}
}

// HandleTCP registers h as the listener for (addr, port), dispatched on the
// fabric's run-to-completion event core (see ConnHandler for the contract).
// Registering a nil handler removes the listener.
func (f *Fabric) HandleTCP(addr netip.Addr, port uint16, h ConnHandler) {
	f.handleTCP(addr, port, h, false)
}

// HandleTCPStream registers h as the listener for (addr, port), running each
// accepted connection on its own goroutine. It has no production caller:
// every world origin answers on the event core (HandleTCP, on readiness
// callbacks where it must wait — see ConnHandler). It is kept only for the
// benchmark harness's layer drives (scripts/tftbench), which register their
// TLS sites through it, until they move to HandleTCP and this mode and its
// spawned goroutine are deleted. Registering a nil handler removes the
// listener.
func (f *Fabric) HandleTCPStream(addr netip.Addr, port uint16, h ConnHandler) {
	f.handleTCP(addr, port, h, true)
}

func (f *Fabric) handleTCP(addr netip.Addr, port uint16, h ConnHandler, stream bool) {
	hst := f.hostFor(addr)
	hst.mu.Lock()
	defer hst.mu.Unlock()
	old := hst.services.Load()
	next := &services{dns: old.dns, tcp: make([]service, 0, len(old.tcp)+1)}
	for _, svc := range old.tcp {
		if svc.port != port {
			next.tcp = append(next.tcp, svc)
		}
	}
	if h != nil {
		next.tcp = append(next.tcp, service{port: port, h: h, stream: stream})
	}
	hst.services.Store(next)
}

// HandleDNS registers h as the DNS service on addr.
func (f *Fabric) HandleDNS(addr netip.Addr, h DNSHandler) {
	hst := f.hostFor(addr)
	hst.mu.Lock()
	defer hst.mu.Unlock()
	hst.services.Store(&services{tcp: hst.services.Load().tcp, dns: h})
}

// noServices is what a host starts out with.
var noServices services

// hostFor returns (creating if needed) the host record for addr.
func (f *Fabric) hostFor(addr netip.Addr) *host {
	f.mu.Lock()
	defer f.mu.Unlock()
	hst, ok := f.hosts[addr]
	if !ok {
		hst = &host{}
		hst.services.Store(&noServices)
		f.hosts[addr] = hst
		f.frozen.Store(nil)
	}
	return hst
}

// lookup returns the host record for addr, or nil.
//
//tftlint:hotpath
func (f *Fabric) lookup(addr netip.Addr) *host {
	hosts := f.frozen.Load()
	if hosts == nil {
		hosts = f.freeze()
	}
	return (*hosts)[addr]
}

// freeze publishes a copy of the host table for lookup to read.
func (f *Fabric) freeze() *map[netip.Addr]*host {
	f.mu.Lock()
	defer f.mu.Unlock()
	hosts := f.frozen.Load()
	if hosts == nil {
		copied := maps.Clone(f.hosts)
		hosts = &copied
		f.frozen.Store(hosts)
	}
	return hosts
}

// Dial opens an in-memory stream from src to (dst, port). The returned
// connection reports src and dst through LocalAddr and RemoteAddr.
//
// The remote handler does not get a goroutine of its own: the accept is
// queued on the fabric's run queue and executes inline on whichever
// goroutine next blocks on a fabric stream — usually the dialer itself, the
// moment it waits for the response. Only the stream mode's handlers (kept
// for the benchmark harness) run on a spawned goroutine.
//
// The stream is a buffered Pipe, not a net.Pipe: writes up to the fabric's
// window complete without waiting for the reader, which removes the
// per-write goroutine rendezvous from every hop of the proxy chain.
func (f *Fabric) Dial(ctx context.Context, src, dst netip.Addr, port uint16) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hst := f.lookup(dst)
	if hst == nil {
		return nil, fmt.Errorf("%w: %s", ErrHostUnreachable, dst)
	}
	svc := hst.services.Load().listener(port)
	if svc.h == nil {
		return nil, fmt.Errorf("%w: %s:%d", ErrConnRefused, dst, port)
	}
	return f.connect(svc, src, dst, port), nil
}

// connect is Dial once the listener is known: what every successful dial
// pays.
//
//tftlint:hotpath
func (f *Fabric) connect(svc service, src, dst netip.Addr, port uint16) *Stream {
	// A sequential handler's dialer is parked beneath it on the stack while
	// it runs, so a response larger than the window could never drain: the
	// service-side send ring grows instead of blocking.
	c := newConn(DefaultWindow, &f.tasks, !svc.stream)
	c.ends[0] = endpoint{ip: src}
	c.ends[1] = endpoint{ip: dst, port: port}
	local, remote := &c.s[0], &c.s[1]
	local.dialed, remote.dialed = true, true
	// Arm any scheduled faults before the handler dispatches, so the fault
	// schedule is a function of dial order alone.
	f.Faults.arm(local, port)
	if svc.stream {
		//tftlint:ignore nogo -- the stream mode, kept only for the benchmark harness's layer drives: each accept runs on its own goroutine by contract
		go svc.h(remote)
	} else {
		f.tasks.push(task{h: svc.h, conn: remote})
	}
	return local
}

// ExchangeDNS delivers one DNS query datagram from src to the service at
// dst and returns its response. It is synchronous; the virtual network has
// no propagation delay.
func (f *Fabric) ExchangeDNS(src, dst netip.Addr, query []byte) ([]byte, error) {
	hst := f.lookup(dst)
	if hst == nil {
		return nil, fmt.Errorf("%w: %s", ErrHostUnreachable, dst)
	}
	h := hst.services.Load().dns
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoDNSService, dst)
	}
	resp := h(src, query)
	if resp == nil {
		return nil, fmt.Errorf("simnet: query to %s dropped", dst)
	}
	return resp, nil
}

// taskQueue is the FIFO run queue of the fabric's run-to-completion
// scheduler. Tasks are pushed by Dial and drained by blocked stream
// operations (see ring.pumpOrWait); with a single crawl worker that drain
// order is deterministic.
type taskQueue struct {
	mu    sync.Mutex
	tasks []task
	head  int
	// waiters are the conds of rings parked with nothing to pump; the next
	// push wakes them all so the new task cannot strand behind goroutines
	// that stopped watching the queue.
	waiters []*sync.Cond
}

// task is one accepted connection waiting for its handler to run: the two as
// values, so that queueing an accept allocates nothing.
type task struct {
	h    ConnHandler
	conn *Stream
}

// push enqueues one task and wakes every parked ring. A task pushed while
// all goroutines are parked (or pinned beneath blocked inline handlers)
// would otherwise never run: parked rings only wake on their own state
// changes. Broadcasting with the cond's lock held closes the race with a
// waiter that subscribed but has not reached Wait — it holds that lock from
// its queue re-check through parking, so it either saw this task pending or
// receives the broadcast.
//
//tftlint:hotpath
func (q *taskQueue) push(t task) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	ws := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	for _, c := range ws {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	}
}

// subscribe registers c for a wakeup on the next push. It reports false —
// registering nothing — when tasks are already pending, so the caller
// re-pumps instead of parking.
func (q *taskQueue) subscribe(c *sync.Cond) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head < len(q.tasks) {
		return false
	}
	q.waiters = append(q.waiters, c)
	return true
}

// pending reports whether any task is queued.
func (q *taskQueue) pending() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.head < len(q.tasks)
}

// runOne pops and runs the oldest task, reporting whether there was one.
// The task runs without the queue lock, so it may dial (pushing new tasks)
// and block on streams (draining them, recursively).
func (q *taskQueue) runOne() bool {
	q.mu.Lock()
	if q.head >= len(q.tasks) {
		q.mu.Unlock()
		return false
	}
	t := q.tasks[q.head]
	q.tasks[q.head] = task{}
	q.head++
	if q.head == len(q.tasks) {
		q.tasks = q.tasks[:0]
		q.head = 0
	}
	q.mu.Unlock()
	t.h(t.conn)
	return true
}

// endpoint is the fabric's net.Addr: the address/port pair held as values,
// so building one costs a single small allocation and extracting the peer
// IP (RemoteIP) costs none.
type endpoint struct {
	ip   netip.Addr
	port uint16
}

// Network implements net.Addr.
func (*endpoint) Network() string { return "tcp" }

// String implements net.Addr.
func (e *endpoint) String() string {
	return netip.AddrPortFrom(e.ip, e.port).String()
}

// RemoteIP extracts the peer netip.Addr from a connection served by the
// fabric (or from a real *net.TCPAddr).
func RemoteIP(conn net.Conn) (netip.Addr, bool) {
	switch ta := conn.RemoteAddr().(type) {
	case *endpoint:
		return ta.ip.Unmap(), true
	case *net.TCPAddr:
		a, ok := netip.AddrFromSlice(ta.IP)
		if !ok {
			return netip.Addr{}, false
		}
		return a.Unmap(), true
	}
	return netip.Addr{}, false
}
