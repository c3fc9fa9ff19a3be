// Package bad takes pooled buffers without returning them.
package bad

import (
	"bytes"

	"github.com/tftproject/tft/internal/httpwire"
)

// getCopyBuf and putCopyBuf mirror proxynet's package-local pool helpers;
// the analyzer matches the unexported pair by name in any package.
func getCopyBuf() *[]byte {
	b := make([]byte, 32<<10)
	return &b
}

func putCopyBuf(*[]byte) {}

// Leak borrows a pooled reader and never puts it back.
func Leak(src *bytes.Buffer) {
	br := httpwire.GetReader(src)
	br.ReadByte()
}

// Dropped does not even hold the pooled reader in a local.
func Dropped(src *bytes.Buffer) {
	httpwire.GetReader(src)
}

// LeakLocal loses a package-local pooled buffer.
func LeakLocal() int {
	buf := getCopyBuf()
	return len(*buf)
}

// takePair mirrors simnet's owned pair: the result outlives the function by
// design, so the Put may be anywhere in the package — here it is nowhere.
func takePair() *[2]int { return new([2]int) }

func recyclePair(*[2]int) {}

type owner struct{ pp *[2]int }

// Open keeps what it takes; nothing in the package ever gives it back.
func Open() *owner { return &owner{pp: takePair()} }
