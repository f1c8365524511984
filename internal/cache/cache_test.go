package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// fixedPort is a next level with constant latency that records requests.
type fixedPort struct {
	latency mem.Cycle
	reqs    []mem.Request
}

func (p *fixedPort) Access(req *mem.Request, at mem.Cycle) mem.Cycle {
	p.reqs = append(p.reqs, *req)
	return at + p.latency
}

func smallCache(next mem.Port) *Cache {
	return New(Config{Name: "L2", Sets: 16, Ways: 4, Latency: 10, MSHREntries: 4}, next)
}

func load(addr mem.Addr) *mem.Request {
	return &mem.Request{PAddr: addr, Type: mem.Load}
}

func TestMissThenHit(t *testing.T) {
	next := &fixedPort{latency: 100}
	c := smallCache(next)

	done := c.Access(load(0x1000), 0)
	if done != 110 {
		t.Errorf("miss completion = %d, want 110 (10 lookup + 100 next)", done)
	}
	if c.Stats.DemandMisses != 1 {
		t.Errorf("DemandMisses = %d", c.Stats.DemandMisses)
	}

	done = c.Access(load(0x1000), 200)
	if done != 210 {
		t.Errorf("hit completion = %d, want 210", done)
	}
	if c.Stats.DemandHits != 1 {
		t.Errorf("DemandHits = %d", c.Stats.DemandHits)
	}
	if len(next.reqs) != 1 {
		t.Errorf("next level saw %d requests, want 1", len(next.reqs))
	}
}

func TestHitUnderFillMerges(t *testing.T) {
	next := &fixedPort{latency: 100}
	c := smallCache(next)
	c.Access(load(0x1000), 0) // fill completes at 110
	// A second access at cycle 50 (fill in flight) completes at fill time,
	// without a second request below.
	done := c.Access(load(0x1040), 50)
	_ = done
	done = c.Access(load(0x1000), 50)
	if done != 110 {
		t.Errorf("merged completion = %d, want 110", done)
	}
	if got := len(next.reqs); got != 2 {
		t.Errorf("next level saw %d requests, want 2", got)
	}
}

func TestLRUEviction(t *testing.T) {
	next := &fixedPort{latency: 1}
	c := New(Config{Name: "c", Sets: 1, Ways: 2, Latency: 1, MSHREntries: 8}, next)
	a, b, d := mem.Addr(0x0), mem.Addr(0x40), mem.Addr(0x80)
	c.Access(load(a), 0)
	c.Access(load(b), 10)
	c.Access(load(a), 20) // a is MRU
	c.Access(load(d), 30) // evicts b
	if !c.Contains(a) {
		t.Error("MRU line evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line survived")
	}
	if !c.Contains(d) {
		t.Error("new line not present")
	}
}

func TestMSHRStallWhenFull(t *testing.T) {
	next := &fixedPort{latency: 1000}
	c := New(Config{Name: "c", Sets: 64, Ways: 4, Latency: 0, MSHREntries: 2}, next)
	c.Access(load(0x0000), 0) // occupies MSHR 0 until 1000
	c.Access(load(0x1000), 0) // occupies MSHR 1 until 1000
	done := c.Access(load(0x2000), 0)
	if done != 2000 {
		t.Errorf("third concurrent miss completed at %d, want 2000 (stalled on MSHR)", done)
	}
}

func TestStoreMarksDirtyAndWritebackOnEvict(t *testing.T) {
	next := &fixedPort{latency: 1}
	c := New(Config{Name: "c", Sets: 1, Ways: 1, Latency: 1, MSHREntries: 2}, next)
	c.Access(&mem.Request{PAddr: 0x0, Type: mem.Store}, 0)
	c.Access(load(0x40), 100) // evicts dirty line
	if c.Stats.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats.Writebacks)
	}
	var sawWB bool
	for _, r := range next.reqs {
		if r.Type == mem.Writeback && r.PAddr == 0x0 {
			sawWB = true
		}
	}
	if !sawWB {
		t.Error("writeback did not reach next level")
	}
}

func TestPrefetchFillAndUseful(t *testing.T) {
	next := &fixedPort{latency: 100}
	c := smallCache(next)
	pf := &mem.Request{PAddr: 0x2000, Type: mem.Prefetch, FillL2: true, PrefID: 1}
	c.Access(pf, 0)
	if c.Stats.PrefetchIssued != 1 {
		t.Errorf("PrefetchIssued = %d", c.Stats.PrefetchIssued)
	}
	// Demand hit long after fill: useful.
	c.Access(load(0x2000), 500)
	if c.Stats.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d", c.Stats.PrefetchUseful)
	}
	// Second demand hit must not double-count.
	c.Access(load(0x2000), 600)
	if c.Stats.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful double-counted: %d", c.Stats.PrefetchUseful)
	}
}

func TestLatePrefetch(t *testing.T) {
	next := &fixedPort{latency: 100}
	c := smallCache(next)
	c.Access(&mem.Request{PAddr: 0x2000, Type: mem.Prefetch, FillL2: true}, 0) // ready at 110
	done := c.Access(load(0x2000), 50)
	if done != 110 {
		t.Errorf("late-prefetch demand completed at %d, want 110", done)
	}
	if c.Stats.PrefetchLate != 1 {
		t.Errorf("PrefetchLate = %d, want 1", c.Stats.PrefetchLate)
	}
	if c.Stats.PrefetchUseful != 0 {
		t.Errorf("PrefetchUseful = %d, want 0", c.Stats.PrefetchUseful)
	}
}

func TestPrefetchHitIsSilentDrop(t *testing.T) {
	next := &fixedPort{latency: 100}
	c := smallCache(next)
	c.Access(load(0x3000), 0)
	hits := c.Stats.Hits
	c.Access(&mem.Request{PAddr: 0x3000, Type: mem.Prefetch, FillL2: true}, 200)
	if c.Stats.Hits != hits {
		t.Error("prefetch hit counted in Hits")
	}
	if len(next.reqs) != 1 {
		t.Error("prefetch to present block went below")
	}
}

func TestAccessNoFillSkipsSelf(t *testing.T) {
	next := &fixedPort{latency: 100}
	c := smallCache(next)
	c.AccessNoFill(&mem.Request{PAddr: 0x4000, Type: mem.Prefetch}, 0)
	if c.Contains(0x4000) {
		t.Error("AccessNoFill installed the block")
	}
	if len(next.reqs) != 1 {
		t.Errorf("request did not go below: %d", len(next.reqs))
	}
	if c.Stats.PrefetchIssued != 1 {
		t.Errorf("PrefetchIssued = %d", c.Stats.PrefetchIssued)
	}
}

type recordingObserver struct {
	NopObserver
	accesses []AccessInfo
	useful   []mem.Addr
	unused   []mem.Addr
	prefIDs  []uint8
}

func (r *recordingObserver) OnAccess(info AccessInfo) { r.accesses = append(r.accesses, info) }
func (r *recordingObserver) OnPrefetchUseful(b mem.Addr, id uint8, _ int) {
	r.useful = append(r.useful, b)
	r.prefIDs = append(r.prefIDs, id)
}
func (r *recordingObserver) OnPrefetchUnused(b mem.Addr, id uint8, _ int) {
	r.unused = append(r.unused, b)
}

func TestObserverEvents(t *testing.T) {
	next := &fixedPort{latency: 10}
	c := New(Config{Name: "c", Sets: 1, Ways: 1, Latency: 1, MSHREntries: 4}, next)
	obs := &recordingObserver{}
	c.SetObserver(obs)

	c.Access(load(0x0), 0)
	if len(obs.accesses) != 1 || obs.accesses[0].Hit {
		t.Fatalf("observer did not see the demand miss: %+v", obs.accesses)
	}
	// Prefetch requests are invisible to OnAccess.
	c.Access(&mem.Request{PAddr: 0x40, Type: mem.Prefetch, FillL2: true, PrefID: 7}, 10)
	if len(obs.accesses) != 1 {
		t.Error("observer saw a prefetch request")
	}
	// Demand hit on the prefetched line reports usefulness with the ID.
	c.Access(load(0x40), 100)
	if len(obs.useful) != 1 || obs.useful[0] != 0x40 || obs.prefIDs[0] != 7 {
		t.Errorf("useful event wrong: %v ids=%v", obs.useful, obs.prefIDs)
	}
	// Evicting an unused prefetched line reports it.
	c.Access(&mem.Request{PAddr: 0x80, Type: mem.Prefetch, FillL2: true}, 200)
	c.Access(load(0xc0), 300) // single-way set: evicts 0x80 unused
	if len(obs.unused) != 1 || obs.unused[0] != 0x80 {
		t.Errorf("unused event wrong: %v", obs.unused)
	}
}

func TestPageWalkCountsAsDemandTraffic(t *testing.T) {
	next := &fixedPort{latency: 10}
	c := smallCache(next)
	c.Access(&mem.Request{PAddr: 0x5000, Type: mem.PageWalk}, 0)
	if c.Stats.DemandMisses != 1 {
		t.Errorf("page walk not accounted in demand misses: %d", c.Stats.DemandMisses)
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	var s Stats
	s.PrefetchUseful = 30
	s.PrefetchLate = 10
	s.PrefetchUnused = 10
	if got := s.Accuracy(); got != 0.8 {
		t.Errorf("Accuracy = %v, want 0.8", got)
	}
	s.DemandMisses = 70
	if got := s.Coverage(); got != 0.3 {
		t.Errorf("Coverage = %v, want 0.3", got)
	}
	s.DemandLatencySum = 500
	s.DemandCount = 50
	if got := s.AvgDemandLatency(); got != 10 {
		t.Errorf("AvgDemandLatency = %v", got)
	}
	if got := s.MPKI(1000); got != 70 {
		t.Errorf("MPKI = %v", got)
	}
	var empty Stats
	if empty.Accuracy() != 0 || empty.Coverage() != 0 || empty.AvgDemandLatency() != 0 || empty.MPKI(0) != 0 {
		t.Error("empty stats should yield zero metrics")
	}
}

// Property: a cache never holds two lines for the same block, and Contains
// agrees with a shadow set after an arbitrary access sequence.
func TestCacheShadowConsistency(t *testing.T) {
	f := func(seq []uint16) bool {
		next := &fixedPort{latency: 5}
		c := New(Config{Name: "c", Sets: 4, Ways: 2, Latency: 1, MSHREntries: 8}, next)
		for i, raw := range seq {
			addr := mem.Addr(raw) << mem.BlockBits
			c.Access(load(addr), mem.Cycle(i*10))
			if !c.Contains(addr) {
				return false // just-accessed block must be present
			}
		}
		// No duplicate tags within any set. The tags array is the only record
		// of a way's block and validity.
		for s := 0; s < 4; s++ {
			seen := map[mem.Addr]bool{}
			for _, tag := range c.tags[s*2 : (s+1)*2] {
				if tag == tagInvalid {
					continue
				}
				block := blockOf(tag)
				if seen[block] {
					return false
				}
				seen[block] = true
				if c.SetIndex(block) != s {
					return false // line in wrong set
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: completion time is never before issue time plus lookup latency.
func TestCompletionMonotoneProperty(t *testing.T) {
	f := func(seq []uint16) bool {
		next := &fixedPort{latency: 50}
		c := smallCache(next)
		at := mem.Cycle(0)
		for _, raw := range seq {
			addr := mem.Addr(raw) << mem.BlockBits
			done := c.Access(load(addr), at)
			if done < at+10 {
				return false
			}
			at += 3
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
