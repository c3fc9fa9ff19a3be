package trace

import (
	"context"
	"log/slog"
)

// HeaderName carries trace context across process hops (client → super
// proxy → agent), playing the role X-Hola-Timeline-Debug plays for
// Luminati's own per-request attribution.
const HeaderName = "X-Tft-Trace"

// unsampledHeader is Unsampled's wire form, as traceparent's "not sampled"
// flag is: the next hop traces nothing for the request either.
const unsampledHeader = "v1;unsampled"

// FormatHeader renders a span context in the wire form
// "v1;t=<16-hex>;s=<16-hex>", Unsampled as "v1;unsampled", and any other
// invalid context as "", meaning: do not stamp a header at all.
func FormatHeader(sc SpanContext) string {
	if sc.unsampled {
		return unsampledHeader
	}
	if !sc.Valid() {
		return ""
	}
	var b [40]byte
	buf := append(b[:0], "v1;t="...)
	buf = appendHex16(buf, uint64(sc.Trace))
	buf = append(buf, ";s="...)
	buf = appendHex16(buf, uint64(sc.Span))
	return string(buf)
}

// ParseHeader parses FormatHeader's wire forms, the only ones any hop
// writes: exactly "v1;t=<16-hex>;s=<16-hex>", hex digits in either case,
// or "v1;unsampled". Anything else yields the zero context — propagation
// is best-effort, never an error.
func ParseHeader(s string) SpanContext {
	if s == unsampledHeader {
		return Unsampled
	}
	if len(s) != 40 || s[:5] != "v1;t=" || s[21:24] != ";s=" {
		return SpanContext{}
	}
	t, tok := unhex16(s[5:21])
	sp, sok := unhex16(s[24:])
	if sc := (SpanContext{Trace: TraceID(t), Span: SpanID(sp)}); tok && sok && sc.Valid() {
		return sc
	}
	return SpanContext{}
}

// unhex16 parses 16 hex digits, either case.
func unhex16(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint64(c)
	}
	return v, true
}

type ctxKey struct{}

// spanCtx is a context carrying a span context: the parent and the value in
// one allocation. Value answers ctxKey with the spanCtx itself, a pointer,
// so that looking the span context up boxes nothing.
type spanCtx struct {
	context.Context
	sc SpanContext
}

func (c *spanCtx) Value(key any) any {
	if key == (ctxKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// unsampledBackground is context.Background() carrying Unsampled, made
// once: every service hop of a request outside the sample starts from it.
var unsampledBackground context.Context = &spanCtx{Context: context.Background(), sc: Unsampled}

// NewContext returns ctx carrying sc for downstream spans and log records:
// a valid context, or Unsampled. Any other leaves ctx as it is. Unsampled
// over context.Background() is one shared context and costs nothing.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() && !sc.unsampled {
		return ctx
	}
	if sc.unsampled && ctx == context.Background() {
		return unsampledBackground
	}
	return &spanCtx{Context: ctx, sc: sc}
}

// FromContext extracts the span context carried by ctx (zero when absent).
func FromContext(ctx context.Context) SpanContext {
	if c, ok := ctx.Value(ctxKey{}).(*spanCtx); ok {
		return c.sc
	}
	return SpanContext{}
}

// LogHandler wraps a slog.Handler so every record logged with a
// trace-carrying context automatically gains trace_id and span_id
// attributes — the "every slog record during a traced request carries its
// trace ID" guarantee, enforced in one place instead of at 30 call sites.
type LogHandler struct {
	inner slog.Handler
}

// NewLogHandler wraps h.
func NewLogHandler(h slog.Handler) *LogHandler { return &LogHandler{inner: h} }

// Enabled implements slog.Handler.
func (h *LogHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler, injecting the context's trace IDs.
func (h *LogHandler) Handle(ctx context.Context, r slog.Record) error {
	if sc := FromContext(ctx); sc.Valid() {
		r.AddAttrs(
			slog.String("trace_id", sc.Trace.String()),
			slog.String("span_id", sc.Span.String()),
		)
	}
	return h.inner.Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (h *LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &LogHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h *LogHandler) WithGroup(name string) slog.Handler {
	return &LogHandler{inner: h.inner.WithGroup(name)}
}
