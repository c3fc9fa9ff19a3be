package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestHonestAndHijackedNodes runs the example end to end over loopback
// sockets — the real-UDP d1/d2 gate (core.ProbeRules), the super proxy and
// two exit-node agents — and checks its verdicts: the honest node passes
// NXDOMAIN through, the hijacking one serves the ISP's landing page with the
// shared redirect appliance's JavaScript.
func TestHonestAndHijackedNodes(t *testing.T) {
	out := stdoutOf(t)
	for _, line := range []string{
		"node zhonest01: NXDOMAIN passed through untouched -> NOT hijacked",
		"   landing page carries the shared redirect-appliance JavaScript (§4.3.1)",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, out)
		}
	}
	if !regexp.MustCompile(`(?m)^node zhijack01: NXDOMAIN replaced with \d+ bytes of content -> HIJACKED$`).MatchString(out) {
		t.Errorf("the hijacking node is not reported HIJACKED:\n%s", out)
	}
}

// stdoutOf runs the example's main with os.Stdout captured and returns
// what it printed.
func stdoutOf(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	return <-printed
}
