package sim

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/recency"
)

// Physical-memory bounds a Config must respect. The allocator needs room for
// its page-table, huge-page and small-frame regions, and every physical
// address must stay below cache.AddrLimit (2^38 − 64), so the largest memory
// is the whole GiB below it: 255 GiB.
const (
	minPhysBytes mem.Addr = 64 << 20
	maxPhysBytes          = cache.AddrLimit &^ (1<<30 - 1)
)

// Geometry bounds a Config must respect. Each is at least 8× the largest
// value any figure uses, and together they keep one configuration — one
// psimd request — from asking a constructor for unbounded memory: cache.New
// allocates Sets×Ways line words and tags, the MSHR, ROB, TLB, walk-cache and
// DRAM-bank tables one entry each.
const (
	maxSets             = 1 << 14 // per level; the per-core LLC has 2048
	maxMSHREntries      = 1 << 10 // Fig. 12 sweeps the L2's up to 128
	maxROBSize          = 1 << 12 // Table I: 352
	maxWidth            = 32      // Table I: 4
	maxTLBEntries       = 1 << 14 // Table I's L2 TLB: 1536
	maxWalkCacheEntries = 1 << 8  // 32
	maxChannels         = 16      // the multi-core figures use 2
	maxBanksPerChan     = 64      // 8
)

// ConfigError is one rule a Config or RunOpt breaks: Field names the setting
// as it is spelled in Go and JSON ("L2.Ways", "RunOpt.Samples"), Value is the
// offending value, Rule what the setting must satisfy. Match it with
// errors.As.
type ConfigError struct {
	Field string
	Value any
	Rule  string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: config %s = %v: %s", e.Field, e.Value, e.Rule)
}

// Validate reports every rule c breaks, joined, or nil. The rules are those
// the system's constructors would otherwise enforce by panicking, values that
// are meaningless and may panic once the run starts (negative latencies, an
// empty TLB, a NaN clock), the geometry bounds above, and the physical-memory
// bound the 32-bit cache tags impose. Run and RunMulti call it first, and the
// CLIs and psimd reject a bad configuration at their edge. RunMulti validates
// after scaling PhysBytes to 4 GiB per core, so a mix may be rejected for its
// core count alone.
func (c Config) Validate() error {
	// Field names are built only on the failure path: Run validates every
	// simulation, and a passing Validate allocates nothing.
	var errs []error
	bad := func(group, field string, value any, rule string) {
		errs = append(errs, &ConfigError{Field: group + field, Value: value, Rule: rule})
	}
	inRange := func(group, field string, v, lo, hi int) bool {
		if v < lo || v > hi {
			bad(group, field, v, fmt.Sprintf("must be %d..%d", lo, hi))
			return false
		}
		return true
	}
	nonNegative := func(group, field string, v mem.Cycle) {
		if v < 0 {
			bad(group, field, v, "must not be negative")
		}
	}

	lruOnly := func(group string, p cache.ReplPolicy) {
		if p != cache.ReplLRU {
			bad(group, "Replacement", p, "must be 0: LRU is the only replacement policy modelled")
		}
	}
	notPow2 := func(v uint64) bool { return v&(v-1) != 0 }

	lruOnly("", c.Replacement)
	inRange("Core.", "Width", c.Core.Width, 1, maxWidth)
	inRange("Core.", "ROBSize", c.Core.ROBSize, 1, maxROBSize)

	for _, l := range []struct {
		group string
		cfg   cache.Config
	}{{"L1I.", c.L1I}, {"L1D.", c.L1D}, {"L2.", c.L2}, {"LLC.", c.LLC}} {
		inRange(l.group, "Sets", l.cfg.Sets, 1, maxSets)
		inRange(l.group, "Ways", l.cfg.Ways, 1, recency.MaxWays)
		inRange(l.group, "MSHREntries", l.cfg.MSHREntries, 1, maxMSHREntries)
		nonNegative(l.group, "Latency", l.cfg.Latency)
		lruOnly(l.group, l.cfg.Replacement)
	}

	for _, t := range []struct {
		group         string
		entries, ways int
	}{{"MMU.L1", c.MMU.L1Entries, c.MMU.L1Ways}, {"MMU.L2", c.MMU.L2Entries, c.MMU.L2Ways}} {
		validWays := inRange(t.group, "Ways", t.ways, 1, recency.MaxWays)
		if inRange(t.group, "Entries", t.entries, 1, maxTLBEntries) && validWays && t.entries%t.ways != 0 {
			bad(t.group, "Entries", t.entries, fmt.Sprintf("must be a multiple of %sWays (%d)", t.group, t.ways))
		}
	}
	nonNegative("MMU.", "L2Latency", c.MMU.L2Latency)
	inRange("MMU.", "WalkCacheEntries", c.MMU.WalkCacheEntries, 0, maxWalkCacheEntries)

	// dram.New maps addresses with masks and shifts alone.
	if inRange("DRAM.", "Channels", c.DRAM.Channels, 1, maxChannels) && notPow2(uint64(c.DRAM.Channels)) {
		bad("DRAM.", "Channels", c.DRAM.Channels, "must be a power of two")
	}
	if inRange("DRAM.", "BanksPerChan", c.DRAM.BanksPerChan, 1, maxBanksPerChan) && notPow2(uint64(c.DRAM.BanksPerChan)) {
		bad("DRAM.", "BanksPerChan", c.DRAM.BanksPerChan, "must be a power of two")
	}
	switch {
	case c.DRAM.RowBytes < mem.BlockSize:
		bad("DRAM.", "RowBytes", c.DRAM.RowBytes, fmt.Sprintf("must be at least one %d-byte block", mem.BlockSize))
	case notPow2(uint64(c.DRAM.RowBytes)):
		bad("DRAM.", "RowBytes", c.DRAM.RowBytes, "must be a power of two")
	}
	if c.DRAM.TransferMTps <= 0 {
		bad("DRAM.", "TransferMTps", c.DRAM.TransferMTps, "must be positive")
	}
	if !(c.DRAM.CoreGHz > 0) { // also rejects NaN
		bad("DRAM.", "CoreGHz", c.DRAM.CoreGHz, "must be positive")
	}
	nonNegative("DRAM.", "RowHitLatency", c.DRAM.RowHitLatency)
	nonNegative("DRAM.", "RowMissLatency", c.DRAM.RowMissLatency)

	switch {
	case c.PhysBytes < minPhysBytes:
		bad("", "PhysBytes", c.PhysBytes, fmt.Sprintf("must be at least %d MiB", minPhysBytes>>20))
	case c.PhysBytes > maxPhysBytes:
		bad("", "PhysBytes", c.PhysBytes, fmt.Sprintf("must be at most %d GiB (the caches hold physical addresses below %#x)", maxPhysBytes>>30, cache.AddrLimit))
	}
	return errors.Join(errs...)
}
