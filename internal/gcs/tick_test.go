package gcs

import (
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// TestTickPolicyBounds pins the derived drain bounds: min is tick/4
// floored at 100µs, max is 4·tick capped at detect/4, and neither
// crosses the nominal tick.
func TestTickPolicyBounds(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	for _, c := range []struct {
		tick, detect, min, max time.Duration
	}{
		{2 * ms, 50 * ms, 500 * us, 8 * ms},     // server defaults
		{1 * ms, 50 * ms, 250 * us, 4 * ms},     // gcs defaults
		{200 * us, 50 * ms, 100 * us, 800 * us}, // floor
		{50 * us, 50 * ms, 50 * us, 200 * us},   // floor capped at the tick
		{2 * ms, 20 * ms, 500 * us, 5 * ms},     // detector cap
		{10 * ms, 20 * ms, 2500 * us, 10 * ms},  // cap below the tick
	} {
		p := newTickPolicy(c.tick, c.detect)
		if p.tick != c.tick || p.min != c.min || p.max != c.max {
			t.Errorf("tick %v detect %v: got min %v max %v, want %v %v", c.tick, c.detect, p.min, p.max, c.min, c.max)
		}
		if c.tick <= c.detect/4 && p.max > c.detect/4 {
			t.Errorf("tick %v detect %v: max %v exceeds detect/4", c.tick, c.detect, p.max)
		}
	}

	g := NewGroup(Config{Clock: vclock.NewVirtual(), Members: []ids.ReplicaID{1}})
	if want := newTickPolicy(time.Millisecond, 50*time.Millisecond); g.ticks != want {
		t.Errorf("NewGroup defaults: policy %+v, want %+v", g.ticks, want)
	}
}

// TestTickPolicyNextTick drives the policy through its three regimes:
// a saturated drain shrinks to min, a busy one holds the tick, and idle
// ticks double up to max.
func TestTickPolicyNextTick(t *testing.T) {
	p := newTickPolicy(2*time.Millisecond, 50*time.Millisecond)
	if got := p.nextTick(p.tick, tickBatch); got != p.min {
		t.Errorf("saturated: %v, want min %v", got, p.min)
	}
	if got := p.nextTick(p.min, tickBatch+100); got != p.min {
		t.Errorf("still saturated: %v, want min %v", got, p.min)
	}
	for _, drained := range []int{1, tickBatch - 1} {
		if got := p.nextTick(p.min, drained); got != p.tick {
			t.Errorf("busy (%d drained): %v, want tick %v", drained, got, p.tick)
		}
	}
	// Idle after saturation returns to the tick first, then doubles.
	cur := p.min
	for i, want := range []time.Duration{p.tick, 2 * p.tick, 4 * p.tick, p.max, p.max} {
		cur = p.nextTick(cur, 0)
		if cur != want {
			t.Fatalf("idle step %d: %v, want %v", i, cur, want)
		}
	}
	if p.max != 4*p.tick {
		t.Fatalf("max %v, want 4·tick", p.max)
	}
	// The first arrival after an idle stretch restores the tick.
	if got := p.nextTick(p.max, 1); got != p.tick {
		t.Errorf("busy after idle: %v, want tick %v", got, p.tick)
	}
}
