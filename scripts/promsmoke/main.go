// Command promsmoke is the check.sh exposition gate: it builds
// cmd/superproxy, starts it with -metrics-addr on free ports against an
// in-process UDP DNS authority, proxies two GETs for the same hostname (a
// fresh daemon has counted nothing, and an empty exposition proves
// nothing), scrapes /metrics, and fails on any line that is not valid
// Prometheus text exposition (version 0.0.4). It then asserts both GETs
// were counted and the resolver cache registered a hit, so the cache's
// telemetry is exercised end to end. Pure Go so the gate has no curl/wget
// dependency.
//
//	go run ./scripts/promsmoke
package main

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/tftproject/tft/internal/dnswire"
)

var (
	commentRe = regexp.MustCompile(`^# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)|HELP .*)$`)
	sampleRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [+-]?([0-9.eE+-]+|Inf|NaN)( [0-9]+)?$`)
)

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startAuthority answers every A query with answer over UDP, acting as the
// super proxy's upstream so resolutions (and the cache in front of them)
// have something real to hit.
func startAuthority(answer netip.Addr) (port int, stop func(), err error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, err
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			n, addr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Unmarshal(buf[:n])
			if err != nil || len(q.Questions) == 0 {
				continue
			}
			r := q.Reply()
			r.Answers = []dnswire.Record{{
				Name: q.Questions[0].Name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
				TTL: 60, A: answer,
			}}
			if wire, err := r.Marshal(); err == nil {
				pc.WriteTo(wire, addr)
			}
		}
	}()
	return pc.LocalAddr().(*net.UDPAddr).Port, func() { pc.Close() }, nil
}

// proxyGet issues one absolute-form GET through the proxy's client port and
// drains the response. A 502 (no exit nodes are registered) is fine — the
// super-proxy-side resolution, which is what the cache assertion needs,
// happens before node selection.
func proxyGet(addr, host string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	auth := base64.StdEncoding.EncodeToString([]byte("lum-customer-smoke:pw"))
	if _, err := fmt.Fprintf(conn,
		"GET http://%s/ HTTP/1.1\r\nHost: %s\r\nProxy-Authorization: Basic %s\r\n\r\n",
		host, host, auth); err != nil {
		return err
	}
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return fmt.Errorf("reading proxy response: %w", err)
	}
	if !strings.HasPrefix(status, "HTTP/") {
		return fmt.Errorf("malformed proxy response %q", status)
	}
	return nil
}

// metricValue extracts a single un-labeled sample value from an exposition.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// scrape fetches /metrics from the daemon's introspection listener.
func scrape(addr string) (string, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func run() error {
	dir, err := os.MkdirTemp("", "promsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "superproxy")
	build := exec.Command("go", "build", "-o", bin, "./cmd/superproxy")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building cmd/superproxy: %w", err)
	}

	dnsPort, stopDNS, err := startAuthority(netip.MustParseAddr("127.0.0.1"))
	if err != nil {
		return err
	}
	defer stopDNS()

	var ports [3]int
	for i := range ports {
		if ports[i], err = freePort(); err != nil {
			return err
		}
	}
	listenAddr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	metricsAddr := fmt.Sprintf("127.0.0.1:%d", ports[2])
	proxy := exec.Command(bin,
		"-listen", listenAddr,
		"-agents", fmt.Sprintf("127.0.0.1:%d", ports[1]),
		"-dns", fmt.Sprintf("127.0.0.1:%d", dnsPort),
		"-metrics-addr", metricsAddr)
	proxy.Stderr = os.Stderr
	if err := proxy.Start(); err != nil {
		return err
	}
	defer func() {
		proxy.Process.Kill()
		proxy.Wait()
	}()

	// The daemon binds its listeners asynchronously; poll until /metrics
	// answers or the deadline passes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := scrape(metricsAddr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scraping /metrics: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Two GETs for the same host: both counted, one resolver miss and at
	// least one hit.
	const host = "cache-probe.tft.example"
	for i := 0; i < 2; i++ {
		if err := proxyGet(listenAddr, host); err != nil {
			return fmt.Errorf("proxy GET %d: %w", i+1, err)
		}
	}
	body, err := scrape(metricsAddr)
	if err != nil {
		return fmt.Errorf("re-scraping /metrics: %w", err)
	}

	samples := 0
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case line == "":
			return fmt.Errorf("blank line %d in exposition", i+1)
		case strings.HasPrefix(line, "#"):
			if !commentRe.MatchString(line) {
				return fmt.Errorf("malformed comment line %d: %q", i+1, line)
			}
		default:
			if !sampleRe.MatchString(line) {
				return fmt.Errorf("malformed sample line %d: %q", i+1, line)
			}
			samples++
		}
	}
	if samples == 0 {
		return fmt.Errorf("exposition has no samples:\n%s", body)
	}
	if gets, ok := metricValue(body, "tft_proxy_get_total"); !ok || gets != 2 {
		return fmt.Errorf("tft_proxy_get_total = %v (present=%v), want 2; exposition:\n%s", gets, ok, body)
	}
	hits, ok := metricValue(body, "tft_proxy_dns_cache_hits_total")
	if !ok || hits < 1 {
		return fmt.Errorf("resolver cache hits = %v (present=%v), want >= 1; exposition:\n%s", hits, ok, body)
	}
	misses, ok := metricValue(body, "tft_proxy_dns_cache_misses_total")
	if !ok || misses < 1 {
		return fmt.Errorf("resolver cache misses = %v (present=%v), want >= 1", misses, ok)
	}

	fmt.Printf("promsmoke: %d valid exposition lines from %s; cache hits=%v misses=%v\n",
		samples, metricsAddr, hits, misses)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "promsmoke:", err)
		os.Exit(1)
	}
}
