package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// TestMonitoredNodesAndTable9 runs the example and checks what it exists
// to print: the monitored share, Table 9 and Figure 5, one monitored node
// walked end to end, and the top monitoring entity.
func TestMonitoredNodesAndTable9(t *testing.T) {
	out := stdoutOf(t)
	for _, re := range []string{
		`(?m)^[1-9]\d* nodes measured; [1-9]\d* \(\d+\.\d+%\) had their requests refetched by third parties$`,
		`(?m)^unexpected requests came from [1-9]\d* addresses in [1-9]\d* AS groups$`,
		`(?m)^Table 9: Top sources of unexpected \(monitoring\) requests$`,
		`(?m)^example: node z\d{8} \(\S+\) fetched http://u-\S+/ once$`,
		`(?m)^  \S+ later, \S+ \(.+\) fetched it again$`,
		`(?m)^top monitoring entity: Trend Micro \([1-9]\d* nodes watched\)$`,
	} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("no line matching %s in:\n%s", re, out)
		}
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
