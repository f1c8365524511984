package cache

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/slabpool"
)

// recycleGeometries are the (sets, ways) shapes the recycle scripts run on:
// direct-mapped and fully associative sets, non-power-of-two set counts
// (the generic set-index path), more than one partial-tag word per set, and
// the 16-way maximum.
var recycleGeometries = [][2]int{{1, 1}, {2, 3}, {4, 4}, {3, 8}, {8, 12}, {5, 16}, {16, 2}}

// logObserver records every callback a cache makes, with requests copied by
// value so logs from different caches compare. Without wantAccess it is a
// feedback-only observer, which arms the line-hit memo.
type logObserver struct {
	wantAccess bool
	log        []string
}

func (o *logObserver) WantsOnAccess() bool { return o.wantAccess }

func (o *logObserver) OnAccess(info AccessInfo) {
	o.log = append(o.log, fmt.Sprintf("access %+v hit=%v at=%d done=%d set=%d", *info.Req, info.Hit, info.At, info.Done, info.Set))
}

func (o *logObserver) OnPrefetchUseful(b mem.Addr, id uint8, core int) {
	o.log = append(o.log, fmt.Sprintf("useful %#x %d %d", b, id, core))
}

func (o *logObserver) OnPrefetchUnused(b mem.Addr, id uint8, core int) {
	o.log = append(o.log, fmt.Sprintf("unused %#x %d %d", b, id, core))
}

func (o *logObserver) OnPrefetchLifecycle(level string, ev LifecycleEvent) {
	req := ev.Req
	ev.Req = nil
	o.log = append(o.log, fmt.Sprintf("life %s %+v req=%+v", level, ev, *req))
}

// recycleRig is one cache under a script, with everything it emits: its
// observer's log, the requests it sent below and each step's result.
type recycleRig struct {
	c     *Cache
	obs   *logObserver
	next  *fixedPort
	steps []string
}

func newRecycleRig(cfg Config, wantAccess bool, s *slab) *recycleRig {
	r := &recycleRig{obs: &logObserver{wantAccess: wantAccess}, next: &fixedPort{latency: 40}}
	r.c = newOn(cfg, r.next, s)
	r.c.SetObserver(r.obs)
	r.c.SetLifecycleObserver(r.obs)
	return r
}

// run replays a script, two bytes a step: the operation and its time
// advance, then the block. The blocks span four times the capacity, so
// scripts hit, merge with in-flight fills, evict and write back.
func (r *recycleRig) run(script []byte, at mem.Cycle) mem.Cycle {
	c := r.c
	span := 4*c.cfg.Sets*c.cfg.Ways + 3
	for i := 0; i+1 < len(script); i += 2 {
		op, b := script[i], script[i+1]
		at += mem.Cycle(op >> 3)
		block := mem.Addr(int(b)%span) << mem.BlockBits
		req := &mem.Request{PAddr: block, Core: int(b & 1), PrefID: op >> 7, FillL2: true}
		var out string
		switch op & 7 {
		case 0, 1:
			req.Type = mem.Load
			out = fmt.Sprint(c.Access(req, at))
		case 2:
			req.Type = mem.Store
			out = fmt.Sprint(c.Access(req, at))
		case 3:
			req.Type = mem.Prefetch
			out = fmt.Sprint(c.Access(req, at))
		case 4:
			req.Type = mem.Prefetch
			out = fmt.Sprint(c.AccessNoFill(req, at))
		case 5:
			req.Type = mem.Writeback
			out = fmt.Sprint(c.Access(req, at))
		case 6:
			req.Type = mem.PageWalk
			out = fmt.Sprint(c.Access(req, at))
		default:
			out = fmt.Sprint(c.Contains(block), c.InFlight(block, at), c.TryDropPrefetch(at))
		}
		r.steps = append(r.steps, out)
	}
	return at
}

// slabDiff describes the first array where two slabs differ, or "".
func slabDiff(got, want *slab) string {
	switch {
	case !slices.Equal(got.lines, want.lines):
		return fmt.Sprintf("lines %x, want %x", got.lines, want.lines)
	case !slices.Equal(got.tags, want.tags):
		return fmt.Sprintf("tags %x, want %x", got.tags, want.tags)
	case !slices.Equal(got.words, want.words):
		return fmt.Sprintf("order/setGen/partial words %x, want %x", got.words, want.words)
	}
	return ""
}

// runRecycleScript checks that recycled storage is exact. data[0] picks the
// geometry, the observer kind and whether promotion is on; data[1] splits the rest into a first and a second script. The first
// runs on a fresh cache, whose storage is then reset as Release resets it
// and must equal a newly allocated slab word for word. The second runs on a
// cache built over the recycled storage and on a fresh cache: every step's
// result, every observer and lifecycle event, every request sent below, the
// Stats and the final storage must agree.
func runRecycleScript(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 2 {
		return
	}
	sel := int(data[0])
	g := recycleGeometries[sel%len(recycleGeometries)]
	sel /= len(recycleGeometries)
	cfg := Config{Name: "c", Sets: g[0], Ways: g[1], Latency: 3, MSHREntries: 4}
	wantAccess := sel&1 == 1
	if sel&2 != 0 {
		cfg.PromoteLatency = 5
	}
	script := data[2:]
	split := int(data[1]) * len(script) / 256
	first, second := script[:split], script[split:]

	used := newRecycleRig(cfg, wantAccess, newSlab(cfg.Sets, cfg.Ways))
	at := used.run(first, 0)
	s := used.c.detach()
	s.reset(cfg.Sets, cfg.Ways)
	if d := slabDiff(s, newSlab(cfg.Sets, cfg.Ways)); d != "" {
		t.Fatalf("%+v: storage reset after %d steps differs from a fresh slab: %s", cfg, len(first)/2, d)
	}

	recycled := newRecycleRig(cfg, wantAccess, s)
	fresh := newRecycleRig(cfg, wantAccess, newSlab(cfg.Sets, cfg.Ways))
	recycled.run(second, at)
	fresh.run(second, at)
	for _, cmp := range []struct {
		what      string
		got, want any
	}{
		{"step results", recycled.steps, fresh.steps},
		{"observer and lifecycle events", recycled.obs.log, fresh.obs.log},
		{"requests sent below", recycled.next.reqs, fresh.next.reqs},
		{"stats", recycled.c.Stats, fresh.c.Stats},
	} {
		if !reflect.DeepEqual(cmp.got, cmp.want) {
			t.Fatalf("%+v: recycled cache's %s differ from a fresh cache's:\n got %v\nwant %v", cfg, cmp.what, cmp.got, cmp.want)
		}
	}
	if d := slabDiff(recycled.c.slab, fresh.c.slab); d != "" {
		t.Fatalf("%+v: recycled cache's storage differs from a fresh cache's after the same script: %s", cfg, d)
	}
}

// FuzzCacheRecycle is runRecycleScript as a fuzz target. The checked-in
// corpus (testdata/fuzz/FuzzCacheRecycle) covers every geometry three times,
// spread over the four observer and promotion settings.
func FuzzCacheRecycle(f *testing.F) {
	f.Add([]byte{0, 128, 0, 1, 8, 1, 3, 2, 0, 1})
	f.Add([]byte{84, 200, 3, 9, 0, 9, 2, 30, 5, 9, 0, 40, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		runRecycleScript(t, data)
	})
}

// TestCacheRecycleScripts runs random scripts over every geometry, observer
// kind and promotion setting.
func TestCacheRecycleScripts(t *testing.T) {
	rng := uint64(1)
	next := func() byte {
		rng = rng*6364136223846793005 + 1442695040888963407
		return byte(rng >> 56)
	}
	for sel := 0; sel < len(recycleGeometries)*4; sel++ {
		for n := 0; n < 8; n++ {
			data := make([]byte, 2+2*(20+int(next())))
			for i := range data {
				data[i] = next()
			}
			data[0] = byte(sel)
			runRecycleScript(t, data)
		}
	}
}

// TestAccessAfterReleasePanics: a released cache no longer owns storage, so
// every path that would read it panics instead of reading the slab the next
// cache of its geometry now holds. The counters and the MSHR table stay.
func TestAccessAfterReleasePanics(t *testing.T) {
	c := smallCache(&fixedPort{latency: 100})
	c.Access(load(0x1000), 0)
	c.Access(load(0x1000), 500) // arms the line-hit memo
	c.Release()
	c.Release() // a second release is a no-op
	for _, probe := range []struct {
		name string
		fn   func()
	}{
		{"memoized hit", func() { c.Access(load(0x1000), 600) }},
		{"access", func() { c.Access(load(0x2000), 600) }},
		{"writeback", func() { c.Access(&mem.Request{PAddr: 0x1000, Type: mem.Writeback}, 600) }},
		{"prefetch", func() { c.AccessNoFill(&mem.Request{PAddr: 0x3000, Type: mem.Prefetch}, 600) }},
		{"Contains", func() { c.Contains(0x1000) }},
		{"InFlight", func() { c.InFlight(0x1000, 600) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", probe.name)
				}
			}()
			probe.fn()
		}()
	}
	if c.Stats.DemandMisses != 1 || c.Stats.DemandHits != 1 {
		t.Errorf("stats after Release = %+v, want the run's 1 miss and 1 hit", c.Stats)
	}
	if got := c.MSHRBusy(50); got != 1 {
		t.Errorf("MSHRBusy after Release = %d, want the run's 1 in-flight miss", got)
	}
}

// TestSlabPoolRecyclesStorage: a released cache's storage goes to the next
// cache of the same geometry, reset, and never to a cache of another; each
// geometry claims one entry of the shared pool table (slabpool.Table).
func TestSlabPoolRecyclesStorage(t *testing.T) {
	cfg := Config{Name: "c", Sets: 7, Ways: 5, Latency: 1, MSHREntries: 4}
	before := PooledGeometries()
	c := New(cfg, nil)
	for b := mem.Addr(0); b < 40; b++ {
		c.Access(load(b<<mem.BlockBits), mem.Cycle(b))
	}
	s := c.slab
	c.Release()
	other := New(Config{Name: "c", Sets: 5, Ways: 7, Latency: 1, MSHREntries: 4}, nil)
	if other.slab == s {
		t.Fatal("a 5×7 cache got a released 7×5 cache's storage")
	}
	if got := PooledGeometries(); before < slabpool.MaxKeys && got != min(before+2, slabpool.MaxKeys) {
		t.Errorf("two new geometries took the pool table from %d to %d entries, want %d", before, got, min(before+2, slabpool.MaxKeys))
	}
	// sync.Pool may drop a Put (always under the race detector, now and
	// then) or hand it to another processor, so reuse is not guaranteed;
	// when it happens the storage must be the construction state.
	if again := New(cfg, nil); again.slab == s {
		if d := slabDiff(s, newSlab(cfg.Sets, cfg.Ways)); d != "" {
			t.Errorf("recycled storage is not in its construction state: %s", d)
		}
	}
}
