package vclock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestDurationUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", int64(Second))
	}
	if Millisecond != 1e6 || Microsecond != 1e3 {
		t.Fatalf("unit mismatch: ms=%d µs=%d", int64(Millisecond), int64(Microsecond))
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(5 * Second)
	if got := t0.Seconds(); got != 5 {
		t.Fatalf("Seconds = %v, want 5", got)
	}
	if d := t0.Sub(Time(2 * int64(Second))); d != 3*Second {
		t.Fatalf("Sub = %v, want 3s", d)
	}
	if Max(Time(1), Time(2)) != 2 || Min(Time(1), Time(2)) != 1 {
		t.Fatal("Max/Min wrong")
	}
}

func TestDurationFor(t *testing.T) {
	// 100 MB at 100 MB/s should take exactly one virtual second.
	if d := DurationFor(100e6, 100); d != Second {
		t.Fatalf("DurationFor = %v, want 1s", d)
	}
	if d := DurationFor(0, 100); d != 0 {
		t.Fatalf("zero bytes should be free, got %v", d)
	}
	if d := DurationFor(100, 0); d != 0 {
		t.Fatalf("zero bandwidth should yield 0, got %v", d)
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("chip")
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire = [%d,%d], want [0,10]", s1, e1)
	}
	// Second acquire at an earlier instant must queue behind the first.
	s2, e2 := r.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second acquire = [%d,%d], want [10,20]", s2, e2)
	}
	// An acquire after the resource is free starts at the caller's now.
	s3, e3 := r.Acquire(100, 10)
	if s3 != 100 || e3 != 110 {
		t.Fatalf("third acquire = [%d,%d], want [100,110]", s3, e3)
	}
	if r.Busy() != 30 {
		t.Fatalf("busy = %v, want 30", r.Busy())
	}
	if r.Acquires() != 3 {
		t.Fatalf("acquires = %d, want 3", r.Acquires())
	}
}

func TestResourceNegativeDuration(t *testing.T) {
	r := NewResource("x")
	s, e := r.Acquire(10, -5)
	if s != 10 || e != 10 {
		t.Fatalf("negative duration must clamp to 0, got [%d,%d]", s, e)
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 50)
	if u := r.Utilization(100); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	// Reservation extending past the observation instant counts partially.
	r2 := NewResource("y")
	r2.Acquire(0, 200)
	if u := r2.Utilization(100); u != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
	if u := r2.Utilization(0); u != 0 {
		t.Fatalf("utilization at t=0 should be 0, got %v", u)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 50)
	r.Reset()
	if r.Busy() != 0 || r.FreeAt() != 0 || r.Acquires() != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: reservations on a resource never overlap and never run
// backwards, regardless of the request pattern.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := NewResource("p")
		var lastEnd Time = -1
		now := Time(0)
		for i, q := range reqs {
			dur := Duration(q % 1000)
			// Vary the caller's notion of now, including going backwards.
			if i%3 == 0 {
				now = now.Add(Duration(q % 50))
			}
			s, e := r.Acquire(now, dur)
			if s < now {
				return false // started before requested
			}
			if e.Sub(s) != dur {
				return false // wrong length
			}
			if s < lastEnd {
				return false // overlap with previous reservation
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total busy time equals the sum of requested durations.
func TestResourceBusyAccountingProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		r := NewResource("p")
		var want Duration
		for _, d := range durs {
			dd := Duration(d)
			r.Acquire(0, dd)
			want += dd
		}
		return r.Busy() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceConcurrentSafety(t *testing.T) {
	r := NewResource("x")
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Acquire(0, 1)
			}
		}()
	}
	wg.Wait()
	if r.Busy() != Duration(goroutines*per) {
		t.Fatalf("busy = %v, want %d", r.Busy(), goroutines*per)
	}
}

func TestPoolPicksEarliestFree(t *testing.T) {
	p := NewPool("core", 2)
	// Two reservations land on distinct cores: both start at 0.
	s1, _ := p.Acquire(0, 100)
	s2, _ := p.Acquire(0, 100)
	if s1 != 0 || s2 != 0 {
		t.Fatalf("starts = %d,%d, want 0,0", s1, s2)
	}
	// Third must queue behind one of them.
	s3, e3 := p.Acquire(0, 50)
	if s3 != 100 || e3 != 150 {
		t.Fatalf("third = [%d,%d], want [100,150]", s3, e3)
	}
	if p.Busy() != 250 {
		t.Fatalf("busy = %v, want 250", p.Busy())
	}
}

func TestPoolUtilization(t *testing.T) {
	p := NewPool("core", 2)
	p.Acquire(0, 100) // one core fully busy over [0,100]
	if u := p.Utilization(100); u != 0.5 {
		t.Fatalf("pool utilization = %v, want 0.5", u)
	}
	p.Reset()
	if p.Busy() != 0 {
		t.Fatal("reset did not clear pool")
	}
}

func TestPoolMinimumSize(t *testing.T) {
	p := NewPool("c", 0)
	if p.Size() != 1 {
		t.Fatalf("size = %d, want clamp to 1", p.Size())
	}
}

func TestActorClock(t *testing.T) {
	a := NewActor("client", 100)
	if a.Now() != 100 || a.Name() != "client" {
		t.Fatal("constructor state wrong")
	}
	a.Advance(50)
	if a.Now() != 150 {
		t.Fatalf("now = %d, want 150", a.Now())
	}
	a.AdvanceTo(120) // backwards: no-op
	if a.Now() != 150 {
		t.Fatalf("clock moved backwards to %d", a.Now())
	}
	a.AdvanceTo(200)
	if a.Now() != 200 {
		t.Fatalf("now = %d, want 200", a.Now())
	}
	a.Advance(-5) // negative: no-op
	if a.Now() != 200 {
		t.Fatalf("negative advance moved clock: %d", a.Now())
	}
}

func TestActorUse(t *testing.T) {
	r := NewResource("chip")
	r.Acquire(0, 100) // busy until 100
	a := NewActor("c", 10)
	start, end := a.Use(r, 20)
	if start != 100 || end != 120 {
		t.Fatalf("use = [%d,%d], want [100,120]", start, end)
	}
	if a.Now() != 120 {
		t.Fatalf("actor now = %d, want 120", a.Now())
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2 * Second, "2.000s"},
		{3 * Millisecond, "3.000ms"},
		{4 * Microsecond, "4.000µs"},
		{7, "7ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// TestDisjointResourcesCommute pins the premise of the host's
// batched executor: reservation schedules on *disjoint* resources
// yield identical timelines regardless of interleaving, while
// reservations on a *shared* resource are order-sensitive — which is
// why overlap is only ever granted to commands whose footprints share
// no resource.
func TestDisjointResourcesCommute(t *testing.T) {
	type acq struct {
		now Time
		dur Duration
	}
	a := []acq{{0, 10}, {5, 20}, {40, 5}}
	b := []acq{{2, 7}, {30, 1}, {31, 9}}

	runDisjoint := func(order []int) (endsA, endsB []Time) {
		ra, rb := NewResource("a"), NewResource("b")
		ia, ib := 0, 0
		for _, who := range order {
			if who == 0 {
				_, end := ra.Acquire(a[ia].now, a[ia].dur)
				endsA = append(endsA, end)
				ia++
			} else {
				_, end := rb.Acquire(b[ib].now, b[ib].dur)
				endsB = append(endsB, end)
				ib++
			}
		}
		return endsA, endsB
	}
	a1, b1 := runDisjoint([]int{0, 0, 0, 1, 1, 1})
	a2, b2 := runDisjoint([]int{1, 0, 1, 0, 1, 0})
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("disjoint schedule A diverged under interleaving: %v vs %v", a1, a2)
		}
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("disjoint schedule B diverged under interleaving: %v vs %v", b1, b2)
		}
	}

	// Witness the converse: the same two reservations on ONE resource
	// depend on issue order, so shared resources must be serialized in
	// grant order by anyone who wants determinism.
	r1 := NewResource("shared")
	_, e1 := r1.Acquire(0, 10)
	_, e2 := r1.Acquire(20, 5)
	r2 := NewResource("shared")
	_, f2 := r2.Acquire(20, 5)
	_, f1 := r2.Acquire(0, 10)
	if e1 == f1 && e2 == f2 {
		t.Fatal("shared-resource acquisition unexpectedly commuted; the engine's conflict rule relies on it not doing so")
	}
}

// scanPool is the pre-heap reference implementation of Pool member
// selection: a linear scan for the earliest-free member with a
// lowest-index tie-break. The heap pool must match it decision for
// decision — same member, same start, same end — on any sequence.
type scanPool struct {
	free []Time
	busy []Duration
}

func (p *scanPool) acquire(now Time, dur Duration) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	best := 0
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[best] {
			best = i
		}
	}
	start = Max(now, p.free[best])
	end = start.Add(dur)
	p.free[best] = end
	p.busy[best] += dur
	return start, end
}

// Property: the indexed-heap Pool is observationally identical to the
// O(n) scan pool — every Acquire returns the same (start, end), and
// NextFree, Busy and Utilization agree at every step — over randomized
// sizes, durations and non-monotonic now sequences.
func TestPoolMatchesScanProperty(t *testing.T) {
	f := func(size uint8, reqs []uint16) bool {
		n := int(size%9) + 1
		heap := NewPool("h", n)
		scan := &scanPool{free: make([]Time, n), busy: make([]Duration, n)}
		now := Time(0)
		for i, q := range reqs {
			dur := Duration(q % 700)
			if i%3 == 0 {
				now = now.Add(Duration(q % 40))
			} else if i%5 == 0 && now > 25 {
				now = now.Add(-25) // callers may present an older now
			}
			if heap.NextFree() != minTime(scan.free) {
				return false
			}
			hs, he := heap.Acquire(now, dur)
			ss, se := scan.acquire(now, dur)
			if hs != ss || he != se {
				return false
			}
		}
		var busy Duration
		for _, b := range scan.busy {
			busy += b
		}
		if heap.Busy() != busy {
			return false
		}
		if now > 0 {
			var u float64
			for i := range scan.free {
				b := scan.busy[i]
				if scan.free[i] > now {
					b -= scan.free[i].Sub(now)
				}
				m := float64(b) / float64(now)
				if m < 0 {
					m = 0
				}
				if m > 1 {
					m = 1
				}
				u += m
			}
			if heap.Utilization(now) != u/float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func minTime(ts []Time) Time {
	m := ts[0]
	for _, v := range ts[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
