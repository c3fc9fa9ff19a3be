package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// TestBlockingStrippingAndTheFaithfulService runs the example and checks
// what it exists to print: the port-25 blocking and STARTTLS-stripping
// counts, the mail-path table, one stripped node, and the 443-only
// service's refusal.
func TestBlockingStrippingAndTheFaithfulService(t *testing.T) {
	out := stdoutOf(t)
	for _, re := range []string{
		`(?m)^[1-9]\d* nodes probed:$`,
		`(?m)^  port 25 blocked outright: [1-9]\d* \(\d+\.\d%\)$`,
		`(?m)^  STARTTLS stripped: +[1-9]\d* \(\d+\.\d\d%\) across [1-9]\d* ASes$`,
		`(?m)^Extension: Mail-path violations by AS \(§3\.4 future work\)$`,
		`(?m)^         but its EHLO reply arrived without STARTTLS — a downgrade middlebox$`,
		`(?m)^with CONNECT restricted to 443 \(Luminati-faithful\): .*403 CONNECT allowed to port 443 only$`,
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
