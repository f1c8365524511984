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

// ConfigError is one rule a Config breaks: Field names the setting as it is
// spelled in Go and JSON ("L2.Ways"), Value is the offending value, Rule what
// the setting must satisfy. Match it with errors.As.
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
// empty TLB, a NaN clock), and the physical-memory bound the 32-bit cache
// tags impose. Run and RunMulti call it first, and the CLIs and psimd reject
// a bad configuration at their edge. RunMulti validates after scaling
// PhysBytes to 4 GiB per core, so a mix may be rejected for its core count
// alone.
func (c Config) Validate() error {
	// Field names are built only on the failure path: Run validates every
	// simulation, and a passing Validate allocates nothing.
	var errs []error
	bad := func(group, field string, value any, rule string) {
		errs = append(errs, &ConfigError{Field: group + field, Value: value, Rule: rule})
	}
	positive := func(group, field string, v int) {
		if v <= 0 {
			bad(group, field, v, "must be positive")
		}
	}
	nonNegative := func(group, field string, v mem.Cycle) {
		if v < 0 {
			bad(group, field, v, "must not be negative")
		}
	}
	ways := func(group, field string, v int) bool {
		if v < 1 || v > recency.MaxWays {
			bad(group, field, v, fmt.Sprintf("must be 1..%d (the recency order's limit)", recency.MaxWays))
			return false
		}
		return true
	}

	positive("Core.", "Width", c.Core.Width)
	positive("Core.", "ROBSize", c.Core.ROBSize)

	for _, l := range []struct {
		group string
		cfg   cache.Config
	}{{"L1I.", c.L1I}, {"L1D.", c.L1D}, {"L2.", c.L2}, {"LLC.", c.LLC}} {
		positive(l.group, "Sets", l.cfg.Sets)
		ways(l.group, "Ways", l.cfg.Ways)
		positive(l.group, "MSHREntries", l.cfg.MSHREntries)
		nonNegative(l.group, "Latency", l.cfg.Latency)
	}

	for _, t := range []struct {
		group         string
		entries, ways int
	}{{"MMU.L1", c.MMU.L1Entries, c.MMU.L1Ways}, {"MMU.L2", c.MMU.L2Entries, c.MMU.L2Ways}} {
		validWays := ways(t.group, "Ways", t.ways)
		switch {
		case t.entries <= 0:
			bad(t.group, "Entries", t.entries, "must be positive")
		case validWays && t.entries%t.ways != 0:
			bad(t.group, "Entries", t.entries, fmt.Sprintf("must be a multiple of %sWays (%d)", t.group, t.ways))
		}
	}
	nonNegative("MMU.", "L2Latency", c.MMU.L2Latency)
	if c.MMU.WalkCacheEntries < 0 {
		bad("MMU.", "WalkCacheEntries", c.MMU.WalkCacheEntries, "must not be negative")
	}

	positive("DRAM.", "Channels", c.DRAM.Channels)
	positive("DRAM.", "BanksPerChan", c.DRAM.BanksPerChan)
	if c.DRAM.RowBytes < mem.BlockSize {
		bad("DRAM.", "RowBytes", c.DRAM.RowBytes, fmt.Sprintf("must be at least one %d-byte block", mem.BlockSize))
	}
	positive("DRAM.", "TransferMTps", c.DRAM.TransferMTps)
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
