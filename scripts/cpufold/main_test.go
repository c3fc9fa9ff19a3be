package main

import (
	"strings"
	"testing"
	"time"
)

// traces is `go tool pprof -traces` output cut down to four samples: a copy
// inside simnet under httpwire and proxynet, a GC assist inside a
// repository allocation, a background mark worker, and an idle scheduler.
const traces = `File: tft.test
Type: cpu
Duration: 911.67ms, Total samples = 1.44s (157.95%)
-----------+-------------------------------------------------------
      40ms   runtime.memmove
             github.com/tftproject/tft/internal/simnet.(*ring).copyOut (inline)
             github.com/tftproject/tft/internal/simnet.(*Stream).Read
             bufio.(*Reader).Read
             github.com/tftproject/tft/internal/httpwire.readBody
             github.com/tftproject/tft/internal/proxynet.(*ExitNode).fetch
-----------+-------------------------------------------------------
      10ms   runtime.gcAssistAlloc
             runtime.mallocgc
             github.com/tftproject/tft/internal/httpwire.readBody
-----------+-------------------------------------------------------
    1.02s   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.notesleep
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
      10ms   github.com/tftproject/tft.RunHTTP
             testing.(*B).runN
-----------+-------------------------------------------------------
`

func TestFoldByInnermostRepoPackage(t *testing.T) {
	p, err := fold(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"simnet":    40 * time.Millisecond,
		gcBucket:    1030 * time.Millisecond,
		schedBucket: 20 * time.Millisecond,
		"tft":       10 * time.Millisecond,
	}
	if p.counts || len(p.sums) != len(want) {
		t.Fatalf("folded into %v (counts %v), want %v", p.sums, p.counts, want)
	}
	for k, v := range want {
		if p.sums[k] != int64(v) {
			t.Errorf("%s: %v, want %v", k, time.Duration(p.sums[k]), v)
		}
	}
	got := table(p)
	if !strings.HasPrefix(got, "| layer | CPU | share |\n|---|---:|---:|\n| runtime GC | 1.03s | 93.6 % |\n| simnet | 40ms | 3.6 % |\n") ||
		!strings.HasSuffix(got, "| total | 1.1s | 100.0 % |\n") {
		t.Fatalf("table:\n%s", got)
	}
}

func TestRepoPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/tftproject/tft/internal/simnet.(*ring).read":            "simnet",
		"github.com/tftproject/tft.RunHTTP":                                 "tft",
		"github.com/tftproject/tft/internal/core.runCrawl[go.shape.*uint8]": "core",
		"github.com/tftproject/tftother.F":                                  "",
		"bufio.(*Reader).Read":                                              "",
	} {
		got, ok := repoPackage(fn)
		if got != want || ok != (want != "") {
			t.Errorf("repoPackage(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

// allocTraces is `go tool pprof -sample_index=alloc_objects -traces` output
// cut down to three samples, each led by the size of its objects: two
// allocations in dnsserver under proxynet, one in httpwire, and one with no
// repository frame.
const allocTraces = `File: tft.test
Type: alloc_objects
Time: 2026-10-19 19:07:55 UTC
-----------+-------------------------------------------------------
     bytes:  32B
      2048   github.com/tftproject/tft/internal/dnsserver.(*Authority).record
             github.com/tftproject/tft/internal/dnsserver.(*Authority).decide
             github.com/tftproject/tft/internal/proxynet.(*SuperProxy).resolveSuper
-----------+-------------------------------------------------------
     bytes:  208B
       512   github.com/tftproject/tft/internal/httpwire.readResponse
             github.com/tftproject/tft/internal/proxynet.(*Client).Get
-----------+-------------------------------------------------------
     bytes:  8B
         1   os.newFile
             testing.(*M).writeProfiles
-----------+-------------------------------------------------------
`

// TestFoldAllocations: an allocation profile sums counts, not durations,
// and its bytes: lines are no sample of their own.
func TestFoldAllocations(t *testing.T) {
	p, err := fold(strings.NewReader(allocTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"dnsserver": 2048, "httpwire": 512, otherBucket: 1}
	if !p.counts || len(p.sums) != len(want) {
		t.Fatalf("folded into %v (counts %v), want %v", p.sums, p.counts, want)
	}
	for k, v := range want {
		if p.sums[k] != v {
			t.Errorf("%s: %d, want %d", k, p.sums[k], v)
		}
	}
	if got := table(p); !strings.HasPrefix(got, "| layer | allocations | share |\n|---|---:|---:|\n| dnsserver | 2048 | 80.0 % |\n") ||
		!strings.HasSuffix(got, "| total | 2561 | 100.0 % |\n") {
		t.Fatalf("table:\n%s", got)
	}
}
