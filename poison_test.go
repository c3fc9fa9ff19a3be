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

// poisonReleasedBodies turns the hook on until the test ends. The crawls it
// covers start after the write and are done before the cleanup, so the
// plain bool is ordered with every reader.
func poisonReleasedBodies(t *testing.T) {
	t.Helper()
	releasePoison = true
	t.Cleanup(func() { releasePoison = false })
}
