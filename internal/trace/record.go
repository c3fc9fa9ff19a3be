package trace

import (
	"encoding/binary"
	"slices"
	"time"
)

// A retained span is a record: the span's fields as bytes, written into its
// ring slot by End and decoded by Spans. In order:
//
//	kind     one byte: 1 + the kind's place in the vocabulary, or 0 and then
//	         the kind as a string, for a kind outside it
//	name     a string: a uvarint length, then the bytes
//	IDs      the span's, the trace's and the parent's, each a uvarint
//	times    the start and the end (appendTime)
//	error    a string
//	attrs    a uvarint count, then for each: a uvarint of the key's length
//	         shifted left one with the value's type in the low bit, the key,
//	         and the value, a string or a varint
//
// Every field is encoded, so a record decodes to the SpanData it was
// written from, except that its times carry no monotonic clock reading and
// come back in the Location of the tracer's base time.

//tftlint:hotpath
func (t *Tracer) appendRecord(b []byte, d *SpanData) []byte {
	if code := slices.Index(vocabulary[:], d.Kind); code >= 0 {
		b = append(b, byte(code+1))
	} else {
		b = appendString(append(b, 0), string(d.Kind))
	}
	b = appendString(b, d.Name)
	b = binary.AppendUvarint(b, uint64(d.SpanID))
	b = binary.AppendUvarint(b, uint64(d.TraceID))
	b = binary.AppendUvarint(b, uint64(d.Parent))
	b = t.appendTime(b, d.Start)
	b = t.appendTime(b, d.End)
	b = appendString(b, d.Err)
	b = binary.AppendUvarint(b, uint64(len(d.Attrs)))
	for _, a := range d.Attrs {
		b = binary.AppendUvarint(b, uint64(len(a.Key))<<1|uint64(a.kind))
		b = append(b, a.Key...)
		if a.kind == attrInt {
			b = binary.AppendVarint(b, a.num)
		} else {
			b = appendString(b, a.str)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendTime appends at's offset from the tracer's base as a varint: while
// it is under 2^32 s, the offset in nanoseconds, doubled; past that, the
// whole seconds doubled plus one, then the nanoseconds as a second varint.
// A virtual clock's times take a byte or two, a wall clock's about seven a
// few hours after the base, and no reading saturates.
func (t *Tracer) appendTime(b []byte, at time.Time) []byte {
	sec, nsec := at.Unix()-t.base.Unix(), int64(at.Nanosecond()-t.base.Nanosecond())
	if -1<<32 < sec && sec < 1<<32 {
		return binary.AppendVarint(b, (sec*1e9+nsec)<<1)
	}
	return binary.AppendVarint(binary.AppendVarint(b, sec<<1|1), nsec)
}

// decode is appendRecord's inverse. Every string of the span it returns
// shares rec, one allocation.
func (t *Tracer) decode(rec string) SpanData {
	r := reader{rec}
	var d SpanData
	if code := r.byte(); code > 0 {
		d.Kind = vocabulary[code-1]
	} else {
		d.Kind = Kind(r.string())
	}
	d.Name = r.string()
	d.SpanID = SpanID(r.uvarint())
	d.TraceID = TraceID(r.uvarint())
	d.Parent = SpanID(r.uvarint())
	d.Start = t.readTime(&r)
	d.End = t.readTime(&r)
	d.Err = r.string()
	if n := r.uvarint(); n > 0 {
		d.Attrs = make([]Attr, n)
		for i := range d.Attrs {
			head := r.uvarint()
			a := Attr{Key: r.take(head >> 1), kind: attrKind(head & 1)}
			if a.kind == attrInt {
				a.num = r.varint()
			} else {
				a.str = r.string()
			}
			d.Attrs[i] = a
		}
	}
	return d
}

func (t *Tracer) readTime(r *reader) time.Time {
	v := r.varint()
	if v&1 == 0 {
		return t.base.Add(time.Duration(v >> 1))
	}
	return time.Unix(t.base.Unix()+v>>1, int64(t.base.Nanosecond())+r.varint()).In(t.base.Location())
}

// reader consumes a record. Records are the tracer's own, so it does not
// check for a short or malformed one.
type reader struct{ s string }

func (r *reader) byte() byte {
	c := r.s[0]
	r.s = r.s[1:]
	return c
}

func (r *reader) uvarint() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		c := r.byte()
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *reader) take(n uint64) string {
	s := r.s[:n]
	r.s = r.s[n:]
	return s
}

func (r *reader) string() string { return r.take(r.uvarint()) }
