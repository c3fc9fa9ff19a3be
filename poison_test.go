package tft

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// releasePoison is internal/httpwire's test hook, reached by linkname so
// that the package need not export a switch only tests may touch: while it
// is set, Response.Release overwrites the buffer with 0xDB before pooling
// it, so a body read after its release shows up as a changed hash at once
// instead of whenever the buffer's next user happens to fill it.
//
//go:linkname releasePoison github.com/tftproject/tft/internal/httpwire.poisonOnRelease
var releasePoison bool

// queryPoison is internal/dnsserver's hook of the same kind: while it is
// set, a resolver overwrites its query datagram with 0xDB as soon as the
// exchange returns, so a DNS handler that kept any of the query shows up as
// a changed hash.
//
//go:linkname queryPoison github.com/tftproject/tft/internal/dnsserver.poisonQueryOnPut
var queryPoison bool

// poisonRecycledBuffers turns both hooks on until the test ends. The crawls
// it covers start after the writes and are done before the cleanup, so the
// plain bools are ordered with every reader.
func poisonRecycledBuffers(t *testing.T) {
	t.Helper()
	releasePoison, queryPoison = true, true
	t.Cleanup(func() { releasePoison, queryPoison = false, false })
}
