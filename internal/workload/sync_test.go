package workload

import (
	"testing"
	"time"
)

// TestSparseBarrierLedger pins the sparse-synchronization accounting:
// every one-hour epoch is either fired or skipped, a stock run skips a
// meaningful fraction (that is the point of the ledger), and the
// watermark lands on the last fired barrier — the end of the run.
func TestSparseBarrierLedger(t *testing.T) {
	f := NewFleet(smallConfig(3))
	days := 3
	f.Run(days)

	st := f.SyncStats()
	if want := int64(days * 24); st.Epochs != want {
		t.Fatalf("epochs = %d, want %d", st.Epochs, want)
	}
	if st.BarriersFired+st.BarriersSkipped != st.Epochs {
		t.Fatalf("fired %d + skipped %d != epochs %d",
			st.BarriersFired, st.BarriersSkipped, st.Epochs)
	}
	if st.BarriersFired == 0 {
		t.Fatal("no barrier ever fired")
	}
	if st.BarriersSkipped == 0 {
		t.Fatal("stock config skipped no barriers; sparse path untested")
	}
	// The 4-hourly checker poll alone forces 6 barriers/day, and the
	// day's final epoch always fires.
	if min := int64(days * 6); st.BarriersFired < min {
		t.Fatalf("fired = %d, want >= %d (checker-period barriers)", st.BarriersFired, min)
	}
	if got, want := f.Watermark(), f.Start.Add(time.Duration(days)*24*time.Hour); !got.Equal(want) {
		t.Fatalf("watermark = %v, want %v", got, want)
	}
	// The shared clock is parked on the watermark between Run calls.
	if !f.Clk.Now().Equal(f.Watermark()) {
		t.Fatalf("clock %v != watermark %v", f.Clk.Now(), f.Watermark())
	}
}

// TestFleetRBLCacheHitRate is the acceptance gate for the RBL memo:
// across a fleet run the overwhelming majority of blocklist lookups must
// be served from the memo. (The old TTL+generation cache measured ~5%
// here.)
func TestFleetRBLCacheHitRate(t *testing.T) {
	f := NewFleet(smallConfig(5))
	f.Run(3)

	st := f.RBLCache.Stats()
	if st.Lookups() < 1000 {
		t.Fatalf("only %d RBL lookups; run too small to judge hit rate", st.Lookups())
	}
	if rate := st.HitRate(); rate < 0.85 {
		t.Fatalf("RBL cache hit rate = %.3f, want >= 0.85 (stats %+v)", rate, st)
	}
}

// TestLaneDeque pins the deque discipline: the owner pops LIFO from the
// tail, thieves steal FIFO from the head, and the two meet exactly once
// per item.
func TestLaneDeque(t *testing.T) {
	var d laneDeque
	d.reset(0, 5) // items 0..4

	if li, ok := d.pop(); !ok || li != 4 {
		t.Fatalf("pop = %d,%v, want 4 (LIFO tail)", li, ok)
	}
	if li, ok := d.steal(); !ok || li != 0 {
		t.Fatalf("steal = %d,%v, want 0 (FIFO head)", li, ok)
	}
	if li, ok := d.steal(); !ok || li != 1 {
		t.Fatalf("steal = %d,%v, want 1", li, ok)
	}
	if li, ok := d.pop(); !ok || li != 3 {
		t.Fatalf("pop = %d,%v, want 3", li, ok)
	}
	if li, ok := d.pop(); !ok || li != 2 {
		t.Fatalf("pop = %d,%v, want 2", li, ok)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque succeeded")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal on empty deque succeeded")
	}

	// reset reuses the backing array and restores both ends.
	d.reset(10, 12)
	if li, _ := d.steal(); li != 10 {
		t.Fatalf("steal after reset = %d, want 10", li)
	}
	if li, _ := d.pop(); li != 11 {
		t.Fatalf("pop after reset = %d, want 11", li)
	}
}
