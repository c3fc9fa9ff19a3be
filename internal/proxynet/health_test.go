package proxynet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/simnet"
)

func newTestTracker(clock simnet.Clock) (*HealthTracker, *metrics.Registry) {
	m := metrics.NewRegistry()
	return NewHealthTracker(clock, 1, m), m
}

func TestHealthTrackerTripsAfterThreshold(t *testing.T) {
	clock := simnet.NewVirtual(time.Unix(0, 0))
	h, m := newTestTracker(clock)
	const zid = "z1"
	for i := 0; i < breakerThreshold-1; i++ {
		h.Failure(zid)
		if !h.Allow(zid) {
			t.Fatalf("breaker open after %d failures, threshold is %d", i+1, breakerThreshold)
		}
	}
	h.Failure(zid)
	if h.Allow(zid) {
		t.Fatal("breaker still closed at threshold")
	}
	if got := h.State(zid); got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	if got := h.OpenCount(); got != 1 {
		t.Fatalf("OpenCount = %d, want 1", got)
	}
	if got := m.Counter("proxy_breaker_trips_total").Value(); got != 1 {
		t.Fatalf("trips counter = %d, want 1", got)
	}
}

func TestHealthTrackerSuccessResetsStreak(t *testing.T) {
	clock := simnet.NewVirtual(time.Unix(0, 0))
	h, _ := newTestTracker(clock)
	const zid = "z1"
	for round := 0; round < 3; round++ {
		h.Failure(zid)
		h.Failure(zid)
		h.Success(zid)
	}
	if !h.Allow(zid) {
		t.Fatal("interleaved successes should keep the breaker closed")
	}
}

func TestHealthTrackerHalfOpenProbe(t *testing.T) {
	clock := simnet.NewVirtual(time.Unix(0, 0))
	h, m := newTestTracker(clock)
	const zid = "z1"
	for i := 0; i < breakerThreshold; i++ {
		h.Failure(zid)
	}
	if h.Allow(zid) {
		t.Fatal("breaker should be open")
	}
	// The cooldown has at most 25% jitter above its base; doubling it is
	// safely past expiry.
	clock.Advance(2 * breakerCooldown)
	if !h.Allow(zid) {
		t.Fatal("first Allow after cooldown should admit a half-open probe")
	}
	if got := h.State(zid); got != "half-open" {
		t.Fatalf("state = %q, want half-open", got)
	}
	// Exactly one probe: a second attempt is rejected until the first
	// reports.
	if h.Allow(zid) {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	if got := m.Counter("proxy_breaker_halfopen_probes_total").Value(); got != 1 {
		t.Fatalf("probe counter = %d, want 1", got)
	}
	h.Success(zid)
	if got := h.State(zid); got != "closed" {
		t.Fatalf("state after probe success = %q, want closed", got)
	}
	if !h.Allow(zid) {
		t.Fatal("breaker should be closed after probe success")
	}
	if got := m.Counter("proxy_breaker_resets_total").Value(); got != 1 {
		t.Fatalf("resets counter = %d, want 1", got)
	}
}

func TestHealthTrackerFailedProbeDoublesCooldown(t *testing.T) {
	clock := simnet.NewVirtual(time.Unix(0, 0))
	h, _ := newTestTracker(clock)
	const zid = "z1"
	for i := 0; i < breakerThreshold; i++ {
		h.Failure(zid)
	}
	clock.Advance(2 * breakerCooldown)
	if !h.Allow(zid) {
		t.Fatal("half-open probe not admitted")
	}
	h.Failure(zid)
	if got := h.State(zid); got != "open" {
		t.Fatalf("state after failed probe = %q, want open", got)
	}
	// The second cooldown is doubled (60s base, +/-25% jitter): after the
	// first base interval the breaker must still be open.
	clock.Advance(breakerCooldown)
	if h.Allow(zid) {
		t.Fatal("doubled cooldown expired after a single base interval")
	}
	clock.Advance(3 * breakerCooldown)
	if !h.Allow(zid) {
		t.Fatal("probe not admitted after the doubled cooldown")
	}
}

func TestHealthTrackerCooldownJitterDeterministic(t *testing.T) {
	until := func() int64 {
		clock := simnet.NewVirtual(time.Unix(0, 0))
		h, _ := newTestTracker(clock)
		for i := 0; i < breakerThreshold; i++ {
			h.Failure("z9")
		}
		v, _ := h.nodes.Load("z9")
		return v.(*nodeHealth).until.Load()
	}
	u1, u2 := until(), until()
	if u1 != u2 {
		t.Fatalf("cooldown expiry differs across identical runs: %d vs %d", u1, u2)
	}
	if u1 == int64(breakerCooldown) {
		t.Fatal("cooldown has no jitter applied")
	}
}

func TestHealthTrackerNilSafe(t *testing.T) {
	var h *HealthTracker
	if !h.Allow("z") {
		t.Fatal("nil tracker must allow everything")
	}
	h.Success("z")
	h.Failure("z")
	if h.OpenCount() != 0 || h.State("z") != "closed" {
		t.Fatal("nil tracker accessors not inert")
	}
}

func TestHealthTrackerUnknownNodeIsClosed(t *testing.T) {
	h, _ := newTestTracker(simnet.NewVirtual(time.Unix(0, 0)))
	if !h.Allow("never-seen") {
		t.Fatal("unknown node must be allowed")
	}
	h.Success("never-seen") // must not allocate a record or panic
	if _, ok := h.nodes.Load("never-seen"); ok {
		t.Fatal("Success on an unknown node allocated a record")
	}
}

func TestIsTransportFault(t *testing.T) {
	faults := []error{
		simnet.ErrInjectedReset,
		fmt.Errorf("read: %w", simnet.ErrInjectedReset),
		os.ErrDeadlineExceeded,
		io.ErrUnexpectedEOF,
		io.ErrClosedPipe,
		io.EOF,
	}
	for _, err := range faults {
		if !IsTransportFault(err) {
			t.Errorf("IsTransportFault(%v) = false, want true", err)
		}
	}
	benign := []error{nil, errors.New("dns_error peer NXDOMAIN"), errPortBlocked}
	for _, err := range benign {
		if IsTransportFault(err) {
			t.Errorf("IsTransportFault(%v) = true, want false", err)
		}
	}
}
