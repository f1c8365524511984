package cache

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/mem"
)

// orderObserver logs every callback in arrival order, for ordering tests.
type orderObserver struct {
	log []string
}

func (o *orderObserver) OnAccess(info AccessInfo) {
	o.log = append(o.log, fmt.Sprintf("access hit=%v", info.Hit))
}
func (o *orderObserver) OnPrefetchUseful(b mem.Addr, id uint8, _ int) {
	o.log = append(o.log, fmt.Sprintf("useful %#x", b))
}
func (o *orderObserver) OnPrefetchUnused(b mem.Addr, id uint8, _ int) {
	o.log = append(o.log, fmt.Sprintf("unused %#x", b))
}

// lifeObserver records lifecycle events.
type lifeObserver struct {
	events []LifecycleEvent
	levels []string
}

func (o *lifeObserver) OnPrefetchLifecycle(cache string, ev LifecycleEvent) {
	o.events = append(o.events, ev)
	o.levels = append(o.levels, cache)
}

// TestObserverOrderingOnHitPath pins the callback contract on the hit path:
// a demand hit on a prefetched line reports usefulness first, then the
// access itself — both after hit/miss resolution, so the engine observes a
// consistent view (feedback before training).
func TestObserverOrderingOnHitPath(t *testing.T) {
	c := smallCache(&fixedPort{latency: 100})
	obs := &orderObserver{}
	c.SetObserver(obs)

	c.Access(&mem.Request{PAddr: 0x2000, Type: mem.Prefetch, FillL2: true}, 0)
	obs.log = nil
	c.Access(load(0x2000), 500)
	want := []string{"useful 0x2000", "access hit=true"}
	if !reflect.DeepEqual(obs.log, want) {
		t.Errorf("hit-path callback order = %v, want %v", obs.log, want)
	}
}

// TestObserverOrderingOnMissFillPath pins the miss path: the victim's
// unused-eviction feedback (from the fill) precedes the miss's OnAccess.
func TestObserverOrderingOnMissFillPath(t *testing.T) {
	c := New(Config{Name: "c", Sets: 1, Ways: 1, Latency: 1, MSHREntries: 4},
		&fixedPort{latency: 10})
	obs := &orderObserver{}
	c.SetObserver(obs)

	c.Access(&mem.Request{PAddr: 0x40, Type: mem.Prefetch, FillL2: true}, 0)
	obs.log = nil
	c.Access(load(0x80), 100) // evicts the unused prefetch, then fills
	want := []string{"unused 0x40", "access hit=false"}
	if !reflect.DeepEqual(obs.log, want) {
		t.Errorf("miss-path callback order = %v, want %v", obs.log, want)
	}
}

func TestLifecycleFillUseEvents(t *testing.T) {
	c := smallCache(&fixedPort{latency: 100})
	obs := &lifeObserver{}
	c.SetLifecycleObserver(obs)

	pf := &mem.Request{PAddr: 0x2000, Type: mem.Prefetch, FillL2: true,
		PrefID: 3, PageSize: mem.Page2M, PageSizeKnown: true, CrossedPage: true}
	c.Access(pf, 5)
	if len(obs.events) != 1 {
		t.Fatalf("events after prefetch fill = %d, want 1", len(obs.events))
	}
	fill := obs.events[0]
	if fill.Kind != LifeFill || fill.Block != 0x2000 || fill.At != 5 || fill.Done != 115 {
		t.Errorf("fill event = %+v", fill)
	}
	if fill.Req.PageSize != mem.Page2M || !fill.Req.CrossedPage || fill.PrefID != 3 {
		t.Errorf("fill attribution = %+v", fill)
	}
	if obs.levels[0] != "L2" {
		t.Errorf("level = %q", obs.levels[0])
	}

	// On-time use.
	c.Access(load(0x2000), 500)
	use := obs.events[1]
	if use.Kind != LifeUse || use.Late || use.PrefID != 3 {
		t.Errorf("use event = %+v", use)
	}
}

func TestLifecycleLateUseAndEvict(t *testing.T) {
	c := New(Config{Name: "c", Sets: 1, Ways: 1, Latency: 1, MSHREntries: 4},
		&fixedPort{latency: 100})
	obs := &lifeObserver{}
	c.SetLifecycleObserver(obs)

	// Late use: the demand lands while the fill is in flight.
	c.Access(&mem.Request{PAddr: 0x40, Type: mem.Prefetch, FillL2: true}, 0)
	c.Access(load(0x40), 10)
	if ev := obs.events[1]; ev.Kind != LifeUse || !ev.Late {
		t.Errorf("late use event = %+v", ev)
	}

	// Unused evict: a fresh prefetch evicted by a demand miss.
	c.Access(&mem.Request{PAddr: 0x80, Type: mem.Prefetch, FillL2: true}, 300)
	c.Access(load(0xc0), 500)
	var kinds []LifecycleKind
	for _, ev := range obs.events {
		kinds = append(kinds, ev.Kind)
	}
	want := []LifecycleKind{LifeFill, LifeUse, LifeFill, LifeEvict}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("lifecycle kinds = %v, want %v", kinds, want)
	}
	evict := obs.events[3]
	if evict.Block != 0x80 || evict.At != 501 {
		t.Errorf("evict event = %+v (At should be the evicting access's MSHR start)", evict)
	}
}

// TestEvictDirtyPrefetchedLine evicts a line that is both dirty and still
// prefetched: the victim's block is rebuilt from its tag word (its block
// number) in the tags array, and the writeback, the unused-prefetch feedback
// and the evict event must all name it. It also pins the 8-byte line word the
// tags array makes possible.
func TestEvictDirtyPrefetchedLine(t *testing.T) {
	next := &fixedPort{latency: 10}
	c := New(Config{Name: "c", Sets: 1, Ways: 1, Latency: 1, MSHREntries: 4}, next)
	fb := &orderObserver{}
	life := &lifeObserver{}
	c.SetObserver(fb)
	c.SetLifecycleObserver(life)

	const victim = mem.Addr(0x40)
	c.Access(&mem.Request{PAddr: victim, Type: mem.Prefetch, FillL2: true, PrefID: 2}, 0)
	// A writeback hit marks the line dirty without a demand, so it stays
	// prefetched.
	c.Access(&mem.Request{PAddr: victim, Type: mem.Writeback}, 50)
	fb.log = nil
	next.reqs = nil
	c.Access(load(0x80), 100) // evicts the victim, then fills

	if c.Stats.Writebacks != 1 || c.Stats.PrefetchUnused != 1 {
		t.Fatalf("Writebacks = %d, PrefetchUnused = %d, want 1 and 1",
			c.Stats.Writebacks, c.Stats.PrefetchUnused)
	}
	var wbs []mem.Addr
	for _, r := range next.reqs {
		if r.Type == mem.Writeback {
			wbs = append(wbs, r.PAddr)
		}
	}
	if !reflect.DeepEqual(wbs, []mem.Addr{victim}) {
		t.Errorf("writebacks below = %#x, want [%#x]", wbs, victim)
	}
	if want := []string{fmt.Sprintf("unused %#x", victim), "access hit=false"}; !reflect.DeepEqual(fb.log, want) {
		t.Errorf("feedback = %v, want %v", fb.log, want)
	}
	evict := life.events[len(life.events)-1]
	if evict.Kind != LifeEvict || evict.Block != victim || evict.PrefID != 2 {
		t.Errorf("evict event = %+v, want LifeEvict of %#x with PrefID 2", evict, victim)
	}
	if got := unsafe.Sizeof(line(0)); got != 8 {
		t.Errorf("line record is %d bytes, want 8", got)
	}
}

func TestLifecycleDropEvent(t *testing.T) {
	// One MSHR entry: the demand reserve (entries/4 = 0 free required) makes
	// any prefetch that finds the single entry busy... with 4 entries and
	// reserve 1, three in-flight demands leave one free entry ≤ reserve.
	c := New(Config{Name: "c", Sets: 16, Ways: 4, Latency: 1, MSHREntries: 4},
		&fixedPort{latency: 1000})
	obs := &lifeObserver{}
	c.SetLifecycleObserver(obs)
	c.Access(load(0x1000), 0)
	c.Access(load(0x2000), 0)
	c.Access(load(0x3000), 0)
	c.Access(&mem.Request{PAddr: 0x4000, Type: mem.Prefetch, FillL2: true}, 0)
	if c.Stats.PrefetchDropped != 1 {
		t.Fatalf("PrefetchDropped = %d, want 1", c.Stats.PrefetchDropped)
	}
	last := obs.events[len(obs.events)-1]
	if last.Kind != LifeDrop || last.Block != 0x4000 {
		t.Errorf("drop event = %+v", last)
	}
}

func TestLifecycleSilentForNoFillLevel(t *testing.T) {
	c := smallCache(&fixedPort{latency: 100})
	obs := &lifeObserver{}
	c.SetLifecycleObserver(obs)
	c.AccessNoFill(&mem.Request{PAddr: 0x4000, Type: mem.Prefetch}, 0)
	if len(obs.events) != 0 {
		t.Errorf("no-fill level emitted %d lifecycle events, want 0", len(obs.events))
	}
}

// TestStatsEdgeCases pins the zero-denominator and late-prefetch corners of
// the derived metrics.
func TestStatsEdgeCases(t *testing.T) {
	// Late prefetches count as useful in accuracy but NOT in coverage
	// (coverage credits fully hidden misses only).
	s := Stats{PrefetchLate: 10, PrefetchUnused: 10}
	if got := s.Accuracy(); got != 0.5 {
		t.Errorf("late-only Accuracy = %v, want 0.5", got)
	}
	if got := s.Coverage(); got != 0 {
		t.Errorf("late-only Coverage = %v, want 0 (late ≠ eliminated miss)", got)
	}

	// Prefetching without a single outcome yet: all metrics well-defined.
	s = Stats{PrefetchIssued: 5}
	if s.Accuracy() != 0 || s.Coverage() != 0 {
		t.Error("outcome-free stats must yield zero accuracy/coverage")
	}

	// Coverage with useful prefetches and zero demand misses is 1.
	s = Stats{PrefetchUseful: 3}
	if got := s.Coverage(); got != 1 {
		t.Errorf("all-useful Coverage = %v, want 1", got)
	}

	// AvgDemandLatency: zero count is 0, not NaN.
	s = Stats{DemandLatencySum: 1000}
	if got := s.AvgDemandLatency(); got != 0 {
		t.Errorf("zero-count AvgDemandLatency = %v", got)
	}
	if got := (&Stats{DemandMisses: 5}).MPKI(0); got != 0 {
		t.Errorf("zero-instruction MPKI = %v", got)
	}
}
