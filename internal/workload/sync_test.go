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

// TestLaneClaimOrder pins the lane scheduler: the claim order is
// DailyVolume descending with ties in company-name order, and for any
// worker count every lane runs exactly once per epoch and parks exactly
// on the epoch end. The per-lane counters are plain ints, so under
// -race a lane run by two workers at once would also fail the test.
func TestLaneClaimOrder(t *testing.T) {
	cfg := smallConfig(3)
	for i := range cfg.Profiles {
		cfg.Profiles[i].DailyVolume = []int{400, 900, 400, 900}[i%4]
	}
	f := NewFleet(cfg)
	ls := newLaneScheduler(f, 2)
	ls.stop()
	if len(ls.order) != len(f.lanes) {
		t.Fatalf("claim order has %d lanes, want %d", len(ls.order), len(f.lanes))
	}
	seen := make(map[*companyLane]bool)
	for i, ln := range ls.order {
		seen[ln] = true
		if i == 0 {
			continue
		}
		prev := ls.order[i-1]
		pv, v := prev.profile.DailyVolume, ln.profile.DailyVolume
		if pv < v || (pv == v && prev.comp.Name > ln.comp.Name) {
			t.Fatalf("claim order %s (%d) before %s (%d)", prev.comp.Name, pv, ln.comp.Name, v)
		}
	}
	if len(seen) != len(f.lanes) {
		t.Fatalf("claim order repeats lanes: %d distinct of %d", len(seen), len(f.lanes))
	}

	const epochs = 5
	for _, workers := range []int{1, 2, 3, len(f.lanes) + 1} {
		f := NewFleet(cfg)
		ls := newLaneScheduler(f, workers)
		ran := make([][epochs]int, len(f.lanes))
		var cur int // epoch being advanced; written only between epochs
		for li, ln := range f.lanes {
			for e := 0; e < epochs; e++ {
				ln.sched.At(f.Start.Add(time.Duration(e)*time.Hour+30*time.Minute), func() {
					if cur != e {
						t.Errorf("workers=%d: lane %d's epoch-%d event ran in epoch %d", workers, li, e, cur)
					}
					ran[li][e]++
				})
			}
		}
		for e := 0; e < epochs; e++ {
			cur = e
			end := f.Start.Add(time.Duration(e+1) * time.Hour)
			ls.advance(end)
			for li, ln := range f.lanes {
				if !ln.clk.Now().Equal(end) {
					t.Fatalf("workers=%d: lane %d clock %v after epoch %d, want %v", workers, li, ln.clk.Now(), e, end)
				}
				if ran[li][e] != 1 {
					t.Fatalf("workers=%d: lane %d ran %d times in epoch %d, want 1", workers, li, ran[li][e], e)
				}
			}
		}
		ls.stop()
	}
}
