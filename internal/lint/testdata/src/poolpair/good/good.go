// Package good pairs every pooled Get with its Put in-function, the PR 3
// discipline: pool only where the lifetime ends in-function.
package good

import (
	"bytes"

	"github.com/tftproject/tft/internal/httpwire"
)

func getCopyBuf() *[]byte {
	b := make([]byte, 32<<10)
	return &b
}

func putCopyBuf(*[]byte) {}

// Paired returns the reader on the spot once parsing is done.
func Paired(src *bytes.Buffer) byte {
	br := httpwire.GetReader(src)
	b, _ := br.ReadByte()
	httpwire.PutReader(br)
	return b
}

// PairedDefer returns the buffer via defer, error paths included.
func PairedDefer() int {
	buf := getCopyBuf()
	defer putCopyBuf(buf)
	return len(*buf)
}

// takePair and recyclePair mirror simnet's owned pair: taken in one
// function, kept by a structure, returned by another when the structure's
// lifetime ends.
func takePair() *[2]int { return new([2]int) }

func recyclePair(*[2]int) {}

type owner struct{ pp *[2]int }

// Open keeps what it takes.
func Open() *owner { return &owner{pp: takePair()} }

// Close gives it back.
func (o *owner) Close() { recyclePair(o.pp) }
