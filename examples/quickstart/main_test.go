package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestTablesReportAndRelease runs the example and checks what it exists to
// print: every reproduced table, the paper-vs-measured report, the
// experiment registry and a non-empty release dump.
func TestTablesReportAndRelease(t *testing.T) {
	out := stdoutOf(t)
	for _, line := range []string{
		"Running the four experiments at 2% of paper scale...",
		"Table 2: Exit nodes, ASes, and countries per experiment",
		"Table 3: Top countries by ratio of hijacked exit nodes",
		"Table 4: ISP DNS servers hijacking responses for >90% of exit nodes",
		"Table 5: Domains in hijacked responses of Google-DNS nodes",
		"Table 6: Most common injected-JavaScript signatures",
		"Table 7: Exit nodes receiving compressed images, by AS",
		"Table 8: Most common issuers of replaced certificates",
		"Table 9: Top sources of unexpected (monitoring) requests",
		"Report: Paper vs. measured (shape reproduction)",
		"registry: [dns http tls monitor smtp]",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing line %q", line)
		}
	}
	if !regexp.MustCompile(`(?m)^"smtp" release dump: dataset [1-9]\d* bytes, geo snapshot [1-9]\d* bytes$`).MatchString(out) {
		t.Errorf("no release dump line in:\n%s", out)
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
