package clock

import (
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

func TestSimNowAdvance(t *testing.T) {
	c := NewSim(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", c.Now(), t0)
	}
	c.Advance(90 * time.Minute)
	want := t0.Add(90 * time.Minute)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", c.Now(), want)
	}
}

func TestSimSetBackwardsPanics(t *testing.T) {
	c := NewSim(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	c.Set(t0.Add(-time.Second))
}

func TestSimAdvanceNegativePanics(t *testing.T) {
	c := NewSim(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	c.Advance(-1)
}

func TestRealClock(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	var got []int
	s.At(t0.Add(3*time.Second), func() { got = append(got, 3) })
	s.At(t0.Add(1*time.Second), func() { got = append(got, 1) })
	s.At(t0.Add(2*time.Second), func() { got = append(got, 2) })
	n := s.RunUntil(t0.Add(10 * time.Second))
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v, want [1 2 3]", got)
		}
	}
	if !c.Now().Equal(t0.Add(10 * time.Second)) {
		t.Fatalf("clock = %v, want horizon", c.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	var got []int
	at := t0.Add(time.Second)
	for i := 0; i < 5; i++ {
		i := i
		s.At(at, func() { got = append(got, i) })
	}
	s.RunUntil(at)
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestSchedulerHorizonExcludesLater(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	ran := false
	s.At(t0.Add(time.Hour), func() { ran = true })
	s.RunUntil(t0.Add(time.Minute))
	if ran {
		t.Fatal("event past horizon ran")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.RunUntil(t0.Add(2 * time.Hour))
	if !ran {
		t.Fatal("event within extended horizon did not run")
	}
}

func TestSchedulerEventSchedulesEvent(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	var times []time.Time
	s.After(time.Second, func() {
		times = append(times, c.Now())
		s.After(time.Second, func() { times = append(times, c.Now()) })
	})
	s.RunUntil(t0.Add(5 * time.Second))
	if len(times) != 2 {
		t.Fatalf("got %d firings, want 2 (chained)", len(times))
	}
	if !times[1].Equal(t0.Add(2 * time.Second)) {
		t.Fatalf("chained event at %v, want %v", times[1], t0.Add(2*time.Second))
	}
}

func TestSchedulerEvery(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	count := 0
	s.Every(time.Hour, t0.Add(24*time.Hour), func() { count++ })
	s.RunUntil(t0.Add(48 * time.Hour))
	// Fires at +1h..+24h inclusive; the +25h tick sees now>until and stops.
	if count != 24 {
		t.Fatalf("Every fired %d times, want 24", count)
	}
}

func TestSchedulerEveryZeroPeriodPanics(t *testing.T) {
	s := NewScheduler(NewSim(t0))
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	s.Every(0, time.Time{}, func() {})
}

func TestSchedulerPastEventRunsImmediately(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	c.Advance(time.Hour)
	ran := false
	s.At(t0.Add(time.Minute), func() { ran = true }) // already in the past
	s.RunUntil(c.Now())
	if !ran {
		t.Fatal("past-dated event did not run")
	}
	// Clock must not go backwards to the event time.
	if c.Now().Before(t0.Add(time.Hour)) {
		t.Fatalf("clock went backwards: %v", c.Now())
	}
}

func TestSchedulerConcurrentScheduling(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	var wg sync.WaitGroup
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.After(time.Duration(i)*time.Millisecond, func() {})
		}(i)
	}
	wg.Wait()
	if got := s.RunFor(time.Second); got != n {
		t.Fatalf("executed %d, want %d", got, n)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	c := NewSim(t0)
	s := NewScheduler(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Millisecond, func() {})
	}
	s.RunFor(time.Hour)
}

// TestSimNowConcurrentWithWriters reads the clock from several
// goroutines while one writer moves it; under -race it also proves the
// lock-free read path is race-free. No reader ever sees time go back.
func TestSimNowConcurrentWithWriters(t *testing.T) {
	c := NewSim(t0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := c.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := c.Now()
				if now.Before(last) {
					t.Errorf("Now went backwards: %v after %v", now, last)
					return
				}
				last = now
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		if i%2 == 0 {
			c.AdvanceTo(t0.Add(time.Duration(i) * time.Second))
		} else {
			c.Set(t0.Add(time.Duration(i) * time.Second))
		}
	}
	close(stop)
	wg.Wait()
	if want := t0.Add(2000 * time.Second); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestSimNowDoesNotAllocate(t *testing.T) {
	c := NewSim(t0)
	if n := testing.AllocsPerRun(100, func() { _ = c.Now() }); n != 0 {
		t.Fatalf("Now allocates %.1f times per call, want 0", n)
	}
}

// TestSimNowKeepsSetValueAndLocation: Now returns exactly the instant
// and Location that Set stored.
func TestSimNowKeepsSetValueAndLocation(t *testing.T) {
	c := NewSim(t0)
	if got := c.Now(); got != t0 {
		t.Fatalf("Now() = %#v, want the identical value %#v", got, t0)
	}
	east := time.FixedZone("UTC+3", 3*60*60)
	for _, want := range []time.Time{
		time.Date(2010, 8, 2, 10, 30, 0, 123456789, east),
		time.Date(2010, 9, 1, 0, 0, 0, 1, time.UTC),
	} {
		c.Set(want)
		got := c.Now()
		if !got.Equal(want) || got.Location() != want.Location() {
			t.Fatalf("Now() = %v (%v), want %v (%v)", got, got.Location(), want, want.Location())
		}
	}
}
