package workload

import (
	"sort"
	"sync/atomic"
	"time"
)

// laneScheduler advances the per-company lanes through one-hour epochs
// on a persistent worker pool. The lanes sit in one claim order, fixed
// for the whole Run: heaviest static profile weight (DailyVolume) first,
// ties in company-name order. Each epoch the workers claim the next lane
// of that order from one atomic counter until none is left, so the
// largest company starts first and the small ones fill in around it
// instead of straggling the epoch behind a late-starting heavy lane.
//
// Correctness does not depend on who executes a lane: lanes are
// independent within an epoch (shared state is frozen between fired
// barriers and all cross-lane effects are staged, see ledger.go), so
// any execution order yields bit-for-bit identical results. The claim
// order itself is deterministic, so scheduling is reproducible too.
type laneScheduler struct {
	f       *Fleet
	workers int

	order []*companyLane // claim order: DailyVolume descending, then name
	next  atomic.Int32   // index into order of the next unclaimed lane

	start []chan time.Time // per-worker epoch release (workers 1..n-1)
	done  chan struct{}    // one token per worker per epoch
	quit  chan struct{}
}

// newLaneScheduler builds the pool. workers <= 1 selects the serial
// path: no goroutines, the lanes run in canonical order.
func newLaneScheduler(f *Fleet, workers int) *laneScheduler {
	ls := &laneScheduler{f: f, workers: workers}
	if workers <= 1 {
		return ls
	}
	ls.order = append([]*companyLane(nil), f.lanes...)
	sort.SliceStable(ls.order, func(i, j int) bool { // f.lanes is in name order
		return ls.order[i].profile.DailyVolume > ls.order[j].profile.DailyVolume
	})
	ls.start = make([]chan time.Time, workers)
	ls.done = make(chan struct{}, workers)
	ls.quit = make(chan struct{})
	for w := 1; w < workers; w++ { // the coordinator doubles as worker 0
		ls.start[w] = make(chan time.Time, 1)
		go ls.loop(w)
	}
	return ls
}

// loop is one pool worker: park until the coordinator releases the
// epoch, claim lanes until none is left, report done.
func (ls *laneScheduler) loop(w int) {
	for {
		select {
		case end := <-ls.start[w]:
			ls.work(end)
			ls.done <- struct{}{}
		case <-ls.quit:
			return
		}
	}
}

// stop tears the pool down (Run exit).
func (ls *laneScheduler) stop() {
	if ls.quit != nil {
		close(ls.quit)
	}
}

// advance runs every lane to epochEnd and returns once all are parked
// there (the epoch rendezvous).
func (ls *laneScheduler) advance(epochEnd time.Time) {
	if ls.workers <= 1 {
		for _, ln := range ls.f.lanes {
			ln.sched.RunUntil(epochEnd)
		}
		return
	}
	ls.next.Store(0)
	for w := 1; w < ls.workers; w++ {
		ls.start[w] <- epochEnd
	}
	ls.work(epochEnd)
	for w := 1; w < ls.workers; w++ {
		<-ls.done
	}
}

// work claims lanes in order and runs each to end, returning when every
// lane of the epoch has been claimed.
func (ls *laneScheduler) work(end time.Time) {
	for {
		i := int(ls.next.Add(1)) - 1
		if i >= len(ls.order) {
			return
		}
		ls.order[i].sched.RunUntil(end)
	}
}
