// Package bad spawns goroutines inside the event-core scope (this fixture
// path counts as in-scope) without waivers: every go statement must
// diagnose, whatever it runs.
package bad

// Serve spawns a goroutine per accepted connection — the dispatch pattern
// the event core retired.
func Serve(accept func() func()) {
	for {
		h := accept()
		if h == nil {
			return
		}
		go h()
	}
}

// Bridge spawns one goroutine per direction.
func Bridge(c2s, s2c func()) {
	go c2s()
	go func() {
		s2c()
	}()
}
