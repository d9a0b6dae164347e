package experiments

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
)

// TestWorkerCountInvariance is the parallel-fleet determinism contract:
// the same seed must produce bit-for-bit identical results whether the
// fleet runs serially or on a worker pool. Companies execute on
// independent lanes with derived RNG streams and join at hourly epoch
// barriers, so the worker count can only change scheduling, never
// outcomes.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full Quick runs")
	}
	run := func(workers int) *Run {
		cfg := Quick(7)
		cfg.Workers = workers
		return NewRun(cfg)
	}
	serial := run(1)
	lcS, gS, ccS := Lifecycle(serial), General(serial), serial.Fleet.ClassCounts()
	for _, workers := range []int{2, 4, 8, 16} {
		parallel := run(workers)
		if lcP := Lifecycle(parallel); !reflect.DeepEqual(lcS, lcP) {
			t.Errorf("Lifecycle diverges:\nworkers=1: %+v\nworkers=%d: %+v", lcS, workers, lcP)
		}
		if gP := General(parallel); !reflect.DeepEqual(gS, gP) {
			t.Errorf("General diverges:\nworkers=1: %+v\nworkers=%d: %+v", gS, workers, gP)
		}
		if ccP := parallel.Fleet.ClassCounts(); !reflect.DeepEqual(ccS, ccP) {
			t.Errorf("class counts diverge:\nworkers=1: %v\nworkers=%d: %v", ccS, workers, ccP)
		}
		// The sparse fire/skip pattern is part of the contract: a skipped
		// barrier under one worker count but not another would mean the
		// predicate saw different staged effects.
		syncS, syncP := serial.Fleet.SyncStats(), parallel.Fleet.SyncStats()
		if !reflect.DeepEqual(syncS, syncP) {
			t.Errorf("barrier pattern diverges:\nworkers=1: %+v\nworkers=%d: %+v", syncS, workers, syncP)
		}
	}
}

// TestSurgeWorkerCountInvariance extends the determinism contract to
// the overload path: a 10× burst with per-lane admission controllers,
// per-lane surge injectors and shed-retry timers must produce
// bit-for-bit identical stats for any worker count. (Unlike FaultPlan,
// SurgePlan must not force serial execution — each lane owns a derived
// injector stream.)
func TestSurgeWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two surge runs")
	}
	mk := func(workers int) (workload.OverloadStats, map[workload.Class]int64) {
		cfg := surgeQuick(7)
		cfg.Workers = workers
		cfg.Overload = SurgeOverloadConfig()
		cfg.SurgePlan = SurgeLatencyPlan()
		cfg.SurgeBursts = []workload.SurgeBurst{{Day: 1, Hour: 10, Hours: 3, Intensity: 10}}
		run := NewRun(cfg)
		return run.Fleet.OverloadStats(), run.Fleet.ClassCounts()
	}
	sS, ccS := mk(1)
	sP, ccP := mk(8)
	if !reflect.DeepEqual(sS, sP) {
		t.Errorf("overload stats diverge across worker counts:\nworkers=1: %+v\nworkers=8: %+v", sS, sP)
	}
	if !reflect.DeepEqual(ccS, ccP) {
		t.Errorf("class counts diverge across worker counts:\nworkers=1: %v\nworkers=8: %v", ccS, ccP)
	}
	if sS.Ctl.ShedTotal() == 0 {
		t.Error("surge run shed nothing; invariance check is vacuous")
	}
}

// TestChaosSurgeWorkerCountInvariance runs the heaviest combined
// configuration — a FaultPlan (which forces serial lane execution, since
// the injector draws from one shared RNG) together with a SurgePlan,
// admission controllers and a 10× burst — and checks that a requested
// worker pool still changes nothing. It also asserts the sparse-barrier
// ledger is genuinely exercised on this path: chaos runs go through the
// same fire/skip predicate as parallel ones.
func TestChaosSurgeWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two chaos+surge runs")
	}
	mk := func(workers int) *Run {
		cfg := surgeQuick(7)
		cfg.Workers = workers
		cfg.FaultPlan = faults.DefaultChaosPlan()
		cfg.Overload = SurgeOverloadConfig()
		cfg.SurgePlan = SurgeLatencyPlan()
		cfg.SurgeBursts = []workload.SurgeBurst{{Day: 1, Hour: 10, Hours: 3, Intensity: 10}}
		return NewRun(cfg)
	}
	a, b := mk(1), mk(8)
	if sA, sB := a.Fleet.OverloadStats(), b.Fleet.OverloadStats(); !reflect.DeepEqual(sA, sB) {
		t.Errorf("overload stats diverge under faults:\nworkers=1: %+v\nworkers=8: %+v", sA, sB)
	}
	if ccA, ccB := a.Fleet.ClassCounts(), b.Fleet.ClassCounts(); !reflect.DeepEqual(ccA, ccB) {
		t.Errorf("class counts diverge under faults:\nworkers=1: %v\nworkers=8: %v", ccA, ccB)
	}
	sync := a.Fleet.SyncStats()
	if !reflect.DeepEqual(sync, b.Fleet.SyncStats()) {
		t.Errorf("barrier pattern diverges under faults: %+v vs %+v", sync, b.Fleet.SyncStats())
	}
	if sync.BarriersFired == 0 || sync.BarriersFired+sync.BarriersSkipped != sync.Epochs {
		t.Errorf("ledger not exercised on the serial chaos path: %+v", sync)
	}
}
