// Package good closes or hands off every span it starts.
package good

import (
	"context"

	"github.com/tftproject/tft/internal/trace"
)

// Ended defers the close.
func Ended(t *trace.Tracer) {
	span := t.StartRoot("ok", trace.KindClient)
	defer span.End()
}

// Branched ends the span on both paths.
func Branched(ctx context.Context, t *trace.Tracer, fail bool) {
	span := t.StartChild(trace.FromContext(ctx), "branch", trace.KindProxy)
	if fail {
		span.SetError("boom")
		span.End()
		return
	}
	span.End()
}

// Handed transfers ownership to the caller.
func Handed(t *trace.Tracer) trace.Span {
	return t.StartRoot("handed", trace.KindClient)
}

// Closure ends the span from a captured function literal.
func Closure(t *trace.Tracer) func() {
	span := t.StartRoot("closure", trace.KindClient)
	return func() { span.End() }
}
