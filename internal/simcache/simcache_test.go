package simcache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testWorkload(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sampleResult fills every top-level field so round-trip tests notice a
// field that stops surviving serialization.
func sampleResult() sim.Result {
	return sim.Result{
		Workload:       "milc",
		Spec:           "spp-PSA",
		Instructions:   123456,
		Cycles:         654321,
		IPC:            0.1887,
		L1D:            cache.Stats{Hits: 10, Misses: 2, DemandHits: 9, DemandMisses: 1, DemandLatencySum: 55, DemandCount: 10},
		L2:             cache.Stats{PrefetchIssued: 7, PrefetchUseful: 5, PrefetchLate: 1, PrefetchUnused: 1},
		LLC:            cache.Stats{Writebacks: 3},
		Engine:         core.Stats{Proposed: 100, Issued: 80, DiscardedBoundary: 20, DiscardedSafe: 11},
		TLBL1Hits:      42,
		TLBL1Misses:    7,
		Walks:          5,
		Frac2MOverTime: []float64{0.5, 0.75, 0.9},
		Frac2MFinal:    0.9,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResult()
	key := Key(sim.DefaultConfig(), sim.PrefSpec{Base: "spp"}, testWorkload(t, "milc"), sim.DefaultRunOpt())
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v", n, err)
	}
}

// TestPutRecreatesShardDir: Put makes a shard directory only when creating
// its temp file finds it missing, so an entry still lands after the
// directory was removed under a live store, and so does the next entry in
// the recreated directory.
func TestPutRecreatesShardDir(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResult()
	key := Key(sim.DefaultConfig(), sim.PrefSpec{Base: "spp"}, testWorkload(t, "milc"), sim.DefaultRunOpt())
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(s.Dir(), key[:2])
	if err := os.RemoveAll(shard); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("hit after the shard directory was removed")
	}
	if err := s.Put(key, want); err != nil {
		t.Fatalf("Put after the shard directory was removed: %v", err)
	}
	other := key[:2] + "00" + key[4:]
	if err := s.Put(other, want); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{key, other} {
		if got, ok := s.Get(k); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("entry %s after the shard was recreated: ok %v, %+v", k[:8], ok, got)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	cfg := sim.DefaultConfig()
	spec := sim.PrefSpec{Base: "spp", Variant: core.PSA}
	w := testWorkload(t, "milc")
	opt := sim.DefaultRunOpt()
	base := Key(cfg, spec, w, opt)

	// The same inputs must produce the same key.
	if Key(cfg, spec, w, opt) != base {
		t.Fatal("key not deterministic")
	}

	mutations := map[string]func() string{
		"config/L2 MSHRs": func() string {
			c := cfg
			c.L2.MSHREntries++
			return Key(c, spec, w, opt)
		},
		"config/DRAM rate": func() string {
			c := cfg
			c.DRAM.TransferMTps *= 2
			return Key(c, spec, w, opt)
		},
		"config/DRAM row slots": func() string {
			c := cfg
			c.DRAM.RowSlots = 2
			return Key(c, spec, w, opt)
		},
		"spec/base": func() string {
			sp := spec
			sp.Base = "bop"
			return Key(cfg, sp, w, opt)
		},
		"spec/variant": func() string {
			sp := spec
			sp.Variant = core.PSASD
			return Key(cfg, sp, w, opt)
		},
		"spec/l1": func() string {
			sp := spec
			sp.L1 = sim.L1IPCP
			return Key(cfg, sp, w, opt)
		},
		"workload": func() string {
			return Key(cfg, spec, testWorkload(t, "soplex"), opt)
		},
		"opt/warmup": func() string {
			op := opt
			op.Warmup++
			return Key(cfg, spec, w, op)
		},
		"opt/instructions": func() string {
			op := opt
			op.Instructions++
			return Key(cfg, spec, w, op)
		},
		"opt/seed": func() string {
			op := opt
			op.Seed++
			return Key(cfg, spec, w, op)
		},
		"opt/samples": func() string {
			op := opt
			op.Samples++
			return Key(cfg, spec, w, op)
		},
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range mutations {
		k := mutate()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyTHPPolicy: two workloads differing only in THP policy must key
// differently (the policy shapes the page-size mix the results depend on).
func TestKeyTHPPolicy(t *testing.T) {
	w := testWorkload(t, "milc")
	w2 := w
	w2.THP = nil
	cfg, spec, opt := sim.DefaultConfig(), sim.PrefSpec{Base: "spp"}, sim.DefaultRunOpt()
	if Key(cfg, spec, w, opt) == Key(cfg, spec, w2, opt) {
		t.Error("THP policy not part of the key")
	}
}

func TestCorruptedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(sim.DefaultConfig(), sim.PrefSpec{Base: "spp"}, testWorkload(t, "milc"), sim.DefaultRunOpt())
	if err := s.Put(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	// Truncate the entry mid-JSON, as a crashed pre-rename writer or bit rot
	// would.
	var entry string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			entry = path
		}
		return nil
	})
	if entry == "" {
		t.Fatal("entry file not found")
	}
	if err := os.WriteFile(entry, []byte(`{"Workload":"mi`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupted entry served as a hit")
	}
	if s.Stats().Corrupt != 1 {
		t.Errorf("corrupt counter = %d", s.Stats().Corrupt)
	}
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Error("corrupted entry not removed")
	}
	// DoContext must recompute and repopulate.
	res, hit, err := s.DoContext(context.Background(), key, func(context.Context) (sim.Result, error) { return sampleResult(), nil })
	if err != nil || hit {
		t.Fatalf("DoContext after corruption: hit=%v err=%v", hit, err)
	}
	if res.Workload != "milc" {
		t.Errorf("recomputed result = %+v", res)
	}
	if _, ok := s.Get(key); !ok {
		t.Error("entry not repopulated")
	}
}

func TestDoSingleFlight(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	ctx := context.Background()
	fn := func(context.Context) (sim.Result, error) {
		executions.Add(1)
		close(started)
		<-release
		return sampleResult(), nil
	}
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]sim.Result, waiters)
	hits := make([]bool, waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], hits[0], _ = s.DoContext(ctx, "k", fn)
	}()
	<-started // the flight is in progress; everyone else must join it
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], hits[i], _ = s.DoContext(ctx, "k", func(context.Context) (sim.Result, error) {
				executions.Add(1)
				return sampleResult(), nil
			})
		}(i)
	}
	// The flight stays blocked on release, and the store is empty on disk,
	// so every waiter that enters DoContext before the close below must join the
	// flight; the sleep gives them ample time to get there.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	if hits[0] {
		t.Error("the executing call reported a hit")
	}
	for i := 1; i < waiters; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("waiter %d got a different result", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Shared != waiters-1 {
		t.Errorf("stats = %+v", st)
	}
	// A later DoContext is a plain disk hit.
	if _, hit, _ := s.DoContext(ctx, "k", fn); !hit {
		t.Error("post-flight DoContext missed")
	}
}

func TestDoErrorNotCached(t *testing.T) {
	s, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := s.DoContext(ctx, "k", func(context.Context) (sim.Result, error) { return sim.Result{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	var ran bool
	if _, hit, err := s.DoContext(ctx, "k", func(context.Context) (sim.Result, error) { ran = true; return sampleResult(), nil }); err != nil || hit {
		t.Fatalf("second DoContext: hit=%v err=%v", hit, err)
	}
	if !ran {
		t.Error("error was cached: second DoContext did not execute")
	}
}

// TestConcurrentWriters exercises many stores (standing in for processes)
// hammering one cache directory with overlapping keys; every subsequent read
// must decode cleanly.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const stores, keys = 4, 16
	var wg sync.WaitGroup
	for i := 0; i < stores; i++ {
		s, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("%064d", k)
				res := sampleResult()
				res.Instructions = uint64(k)
				if err := s.Put(key, res); err != nil {
					t.Error(err)
				}
				if got, ok := s.Get(key); ok && got.Instructions != uint64(k) {
					t.Errorf("key %d decoded to instructions %d", k, got.Instructions)
				}
			}
		}(s)
	}
	wg.Wait()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		got, ok := s.Get(fmt.Sprintf("%064d", k))
		if !ok {
			t.Fatalf("key %d missing after concurrent writes", k)
		}
		if got.Instructions != uint64(k) {
			t.Errorf("key %d = instructions %d", k, got.Instructions)
		}
	}
	if n, err := s.Len(); err != nil || n != keys {
		t.Errorf("Len = %d, %v", n, err)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate nonzero")
	}
	s = Stats{Hits: 3, Shared: 1, Misses: 4}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v", got)
	}
}

func TestNewRejectsEmptyDir(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("empty dir accepted")
	}
}
