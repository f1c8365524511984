package dram

import (
	"testing"

	"repro/internal/mem"
)

func read(addr mem.Addr) *mem.Request { return &mem.Request{PAddr: addr, Type: mem.Load} }

func TestBurstCyclesFromRate(t *testing.T) {
	d := New(DefaultConfig())
	// 8 transfers at 3200 MT/s under a 4GHz core: 10 cycles per block.
	if d.BurstCycles() != 10 {
		t.Errorf("BurstCycles = %d, want 10", d.BurstCycles())
	}
	cfg := DefaultConfig()
	cfg.TransferMTps = 400
	if got := New(cfg).BurstCycles(); got != 80 {
		t.Errorf("400MT/s BurstCycles = %d, want 80", got)
	}
}

func TestRowHitVsMissLatency(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	first := d.Access(read(0x0), 0)
	wantFirst := cfg.RowMissLatency + d.BurstCycles()
	if first != wantFirst {
		t.Errorf("first access done at %d, want %d", first, wantFirst)
	}
	// Next block in the same row: row hit, but serialized behind the bus.
	second := d.Access(read(0x40), 0)
	if second <= first {
		t.Errorf("bus not serialized: second=%d first=%d", second, first)
	}
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 {
		t.Errorf("row stats = %+v", d.Stats)
	}
}

func TestSequentialStreamMostlyRowHits(t *testing.T) {
	d := New(DefaultConfig())
	for i := 0; i < 512; i++ {
		d.Access(read(mem.Addr(i)*mem.BlockSize), mem.Cycle(i*1000))
	}
	if rate := d.Stats.RowHitRate(); rate < 0.9 {
		t.Errorf("sequential stream row-hit rate = %v, want > 0.9", rate)
	}
}

func TestRandomStreamMostlyRowMisses(t *testing.T) {
	d := New(DefaultConfig())
	x := uint64(12345)
	for i := 0; i < 512; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := mem.Addr(x) % (1 << 30)
		d.Access(read(mem.BlockAlign(addr)), mem.Cycle(i*1000))
	}
	if rate := d.Stats.RowHitRate(); rate > 0.3 {
		t.Errorf("random stream row-hit rate = %v, want < 0.3", rate)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Back-to-back requests at cycle 0 serialize on the bus: completion of
	// the Nth is at least N * burst cycles.
	d := New(DefaultConfig())
	var last mem.Cycle
	const n = 100
	for i := 0; i < n; i++ {
		last = d.Access(read(mem.Addr(i)*mem.BlockSize), 0)
	}
	if min := mem.Cycle(n) * d.BurstCycles(); last < min {
		t.Errorf("100 simultaneous accesses completed at %d, want ≥ %d", last, min)
	}
}

func TestLowerRateIsSlower(t *testing.T) {
	fast := New(DefaultConfig())
	slowCfg := DefaultConfig()
	slowCfg.TransferMTps = 400
	slow := New(slowCfg)
	var fDone, sDone mem.Cycle
	for i := 0; i < 64; i++ {
		a := mem.Addr(i) * mem.BlockSize
		fDone = fast.Access(read(a), 0)
		sDone = slow.Access(read(a), 0)
	}
	if sDone <= fDone {
		t.Errorf("400MT/s (%d) not slower than 3200MT/s (%d)", sDone, fDone)
	}
}

func TestWriteCounted(t *testing.T) {
	d := New(DefaultConfig())
	d.Access(&mem.Request{PAddr: 0x0, Type: mem.Writeback}, 0)
	if d.Stats.Writes != 1 || d.Stats.Reads != 0 {
		t.Errorf("stats = %+v", d.Stats)
	}
}

func TestChannelInterleave(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	d := New(cfg)
	ch0, _, _ := d.mapAddr(0x0)
	ch1, _, _ := d.mapAddr(0x40)
	if ch0 == ch1 {
		t.Error("consecutive blocks mapped to the same channel")
	}
	// Two channels double the effective bandwidth for a streaming pattern.
	var last mem.Cycle
	for i := 0; i < 64; i++ {
		last = d.Access(read(mem.Addr(i)*mem.BlockSize), 0)
	}
	single := New(DefaultConfig())
	var lastSingle mem.Cycle
	for i := 0; i < 64; i++ {
		lastSingle = single.Access(read(mem.Addr(i)*mem.BlockSize), 0)
	}
	if last >= lastSingle {
		t.Errorf("2-channel (%d) not faster than 1-channel (%d)", last, lastSingle)
	}
}

// TestRejectsRowSmallerThanBlock pins New's geometry check for rows that
// hold no whole block or are not a power of two: mapAddr takes the row as a
// shift of the block number, so neither has a row number. The smallest legal
// row (one block) still works.
func TestRejectsRowSmallerThanBlock(t *testing.T) {
	for _, rowBytes := range []mem.Addr{0, 32, mem.BlockSize - 1, 3 * mem.BlockSize} {
		cfg := DefaultConfig()
		cfg.RowBytes = rowBytes
		mustRejectGeometry(t, cfg)
	}
	for _, rowBytes := range []mem.Addr{mem.BlockSize, 2 * mem.BlockSize} {
		cfg := DefaultConfig()
		cfg.RowBytes = rowBytes
		d := New(cfg)
		for i := 0; i < 8; i++ {
			d.Access(read(mem.Addr(i)*mem.BlockSize), 0)
		}
		if d.Stats.Reads != 8 {
			t.Errorf("RowBytes %d: Reads = %d, want 8", rowBytes, d.Stats.Reads)
		}
	}
}

// TestRejectsNonPowerOfTwoGeometry: channel and bank counts are masks in
// mapAddr, so New refuses any that is not a power of two.
func TestRejectsNonPowerOfTwoGeometry(t *testing.T) {
	for _, n := range []int{-2, 0, 3, 6, 12} {
		cfg := DefaultConfig()
		cfg.Channels = n
		mustRejectGeometry(t, cfg)
		cfg = DefaultConfig()
		cfg.BanksPerChan = n
		mustRejectGeometry(t, cfg)
	}
}

// mustRejectGeometry checks that New panics on cfg's geometry.
func mustRejectGeometry(t *testing.T, cfg Config) {
	t.Helper()
	defer func() {
		if r := recover(); r != "dram: bad geometry" {
			t.Errorf("%+v: New panicked with %v, want \"dram: bad geometry\"", cfg, r)
		}
	}()
	New(cfg)
}
