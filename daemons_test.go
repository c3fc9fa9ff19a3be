package tft

// Cross-process integration: build the four daemons, launch them as real
// processes wired together over loopback, and drive a proxied measurement
// through the assembled service — the paper's infrastructure as separate
// programs — and the campaign CLI with its flight recorder on.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
	"testing"
	"time"

	"github.com/tftproject/tft/internal/content"
	"github.com/tftproject/tft/internal/httpwire"
	"github.com/tftproject/tft/internal/proxynet"
)

// freePort grabs an available loopback TCP port.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func freeUDPPort(t *testing.T) int {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	return pc.LocalAddr().(*net.UDPAddr).Port
}

// buildCommands builds the named ./cmd packages into a fresh directory and
// returns it.
func buildCommands(t *testing.T, names ...string) string {
	t.Helper()
	bin := t.TempDir()
	args := []string{"build", "-o", bin}
	for _, name := range names {
		args = append(args, "./cmd/"+name)
	}
	build := exec.Command("go", args...)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building %v: %v", names, err)
	}
	return bin
}

// Prometheus text exposition, version 0.0.4: what a comment line and a
// sample line may look like.
var (
	promCommentRe = regexp.MustCompile(`^# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)|HELP .*)$`)
	promSampleRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [+-]?([0-9.eE+-]+|Inf|NaN)( [0-9]+)?$`)
)

// scrapeExposition fetches /metrics from a daemon's introspection listener,
// fails on any line that is not valid exposition, and returns the
// un-labeled samples by name.
func scrapeExposition(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scraping /metrics: status %d, %v", resp.StatusCode, err)
	}
	samples := map[string]float64{}
	for i, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			if !promCommentRe.MatchString(line) {
				t.Errorf("malformed comment line %d: %q", i+1, line)
			}
		case !promSampleRe.MatchString(line): // a blank line too
			t.Errorf("malformed sample line %d: %q", i+1, line)
		default:
			name, value, _ := strings.Cut(line, " ")
			if v, err := strconv.ParseFloat(value, 64); err == nil {
				samples[name] = v
			}
		}
	}
	if len(samples) == 0 {
		t.Fatalf("exposition has no samples:\n%s", body)
	}
	return samples
}

func TestDaemonsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process test in -short mode")
	}
	bin := buildCommands(t, "authdns", "originweb", "superproxy", "exitnode")

	dnsPort := freeUDPPort(t)
	webPort := freePort(t)
	proxyPort := freePort(t)
	agentPort := freePort(t)
	metricsAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	start := func(name string, args ...string) {
		t.Helper()
		cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}

	start("authdns",
		"-listen", fmt.Sprintf("127.0.0.1:%d", dnsPort),
		"-web", "127.0.0.1", "-super-src", "127.0.0.2", "-log=false")
	start("originweb", "-listen", fmt.Sprintf("127.0.0.1:%d", webPort))
	start("superproxy",
		"-listen", fmt.Sprintf("127.0.0.1:%d", proxyPort),
		"-agents", fmt.Sprintf("127.0.0.1:%d", agentPort),
		"-dns", fmt.Sprintf("127.0.0.1:%d", dnsPort),
		"-dns-bind", "127.0.0.2",
		"-http-port", fmt.Sprint(webPort),
		"-metrics-addr", metricsAddr)
	start("exitnode",
		"-zid", "zproc0001", "-country", "DE",
		"-gateway", fmt.Sprintf("127.0.0.1:%d", agentPort),
		"-dns", fmt.Sprintf("127.0.0.1:%d", dnsPort),
		"-dns-bind", "127.0.0.3")

	client := &proxynet.Client{
		Net: &proxynet.TCPDialer{
			MapAddr: func(netip.Addr, uint16) string {
				return fmt.Sprintf("127.0.0.1:%d", proxyPort)
			},
			Timeout: 2 * time.Second,
		},
		Src:   netip.MustParseAddr("127.0.0.1"),
		Proxy: netip.MustParseAddr("127.0.0.1"),
		User:  "lum-customer-it", Password: "pw",
	}

	// A GET the proxy answered is one it counted.
	tried, answered := 0, 0
	get := func(url string) (*httpwire.Response, *proxynet.Debug, error) {
		resp, dbg, err := client.Get(context.Background(), proxynet.Options{RemoteDNS: true}, url)
		tried++
		if err == nil {
			answered++
		}
		return resp, dbg, err
	}

	// The agent needs a moment to register; retry the proxied GET until the
	// service is assembled.
	deadline := time.Now().Add(15 * time.Second)
	url := fmt.Sprintf("http://d1-proc.probe.tft-example.net:%d/object.css", webPort)
	var lastErr string
	for time.Now().Before(deadline) {
		resp, dbg, err := get(url)
		if err == nil && resp.StatusCode == 200 && dbg.ZID == "zproc0001" {
			if string(resp.Body) != string(content.Object(content.KindCSS)) {
				t.Fatalf("body mismatch: %d bytes", len(resp.Body))
			}
			// And the honest-NXDOMAIN path across processes: d2 names are
			// gated on the super proxy's 127.0.0.2 source, so the node's
			// 127.0.0.3 resolver sees NXDOMAIN.
			d2url := fmt.Sprintf("http://d2-proc.probe.tft-example.net:%d/", webPort)
			resp2, dbg2, err := get(d2url)
			if err != nil {
				t.Fatal(err)
			}
			if !dbg2.PeerNXDomain() {
				t.Fatalf("d2 probe: status %d, dbg %+v", resp2.StatusCode, dbg2)
			}
			// The daemon's exposition, scraped once it has counted something
			// (a fresh one is empty and proves nothing): every line valid,
			// every proxied GET counted once.
			gets := int(scrapeExposition(t, metricsAddr)["tft_proxy_get_total"])
			if gets < answered || gets > tried {
				t.Errorf("tft_proxy_get_total = %d after %d GETs, %d of them answered", gets, tried, answered)
			}
			return
		}
		if err != nil {
			lastErr = err.Error()
		} else {
			lastErr = fmt.Sprintf("status %d dbg %+v", resp.StatusCode, dbg)
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatalf("service never assembled: %s", lastErr)
}

// headlineRe extracts the measured and filtered node counts from the DNS
// run's headline, e.g. "== DNS (§4): 14636 nodes measured (29 filtered
// shared-anycast), ...". The tracker's done-count includes the nodes the
// analysis later filters, so the manifest must equal their sum.
var headlineRe = regexp.MustCompile(`(\d+) nodes measured \((\d+) filtered`)

// TestCLIFlightRecorderEndToEnd runs cmd/tft as an operator does, with
// -progress and -progress-jsonl on a short DNS crawl, and holds the
// recorder's whole surface together: the stderr stream carried a live
// progress line; every checkpoint line parses with a known type; the stream
// has a sample and exactly one dns manifest; and the manifest's node count
// is the headline's.
func TestCLIFlightRecorderEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process test in -short mode")
	}
	bin := buildCommands(t, "tft")
	ckpt := filepath.Join(t.TempDir(), "checkpoints.jsonl")
	cmd := exec.Command(filepath.Join(bin, "tft"),
		"-experiment", "dns", "-scale", "0.02", "-workers", "4",
		"-progress", "-progress-jsonl", ckpt, "-progress-interval", "25ms")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tft run: %v\nstderr:\n%s", err, &stderr)
	}
	if !strings.Contains(stderr.String(), "probes/s") {
		t.Errorf("stderr carried no progress line:\n%s", &stderr)
	}

	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 4<<20) // a stall line carries a goroutine profile
	samples, manifests := 0, 0
	var manifestNodes int64
	for sc.Scan() {
		var line struct {
			Type       string `json:"type"`
			Experiment string `json:"experiment"`
			NodesDone  int64  `json:"nodes_done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable checkpoint line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "sample":
			samples++
		case "stall": // legal, if unexpected in a healthy run
		case "manifest":
			manifests++
			if line.Experiment != "dns" {
				t.Errorf("manifest for %q, want dns", line.Experiment)
			}
			manifestNodes = line.NodesDone
		default:
			t.Errorf("unknown checkpoint line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if samples < 1 || manifests != 1 {
		t.Errorf("checkpoint stream carried %d samples and %d manifests, want at least one and exactly one", samples, manifests)
	}

	m := headlineRe.FindSubmatch(stdout.Bytes())
	if m == nil {
		t.Fatalf("no measured-node headline in stdout:\n%s", &stdout)
	}
	measured, _ := strconv.ParseInt(string(m[1]), 10, 64)
	filtered, _ := strconv.ParseInt(string(m[2]), 10, 64)
	if manifestNodes != measured+filtered {
		t.Errorf("manifest nodes_done %d != headline %d measured + %d filtered", manifestNodes, measured, filtered)
	}
}
