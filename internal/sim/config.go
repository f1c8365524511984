// Package sim assembles the full simulated system — cores, TLBs, page
// tables, the three-level cache hierarchy, prefetch engines, and DRAM — and
// drives single-core and multi-core runs, producing the metrics the
// experiment harness aggregates into the paper's figures.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/ampm"
	"repro/internal/prefetch/bop"
	"repro/internal/prefetch/nextline"
	"repro/internal/prefetch/pangloss"
	"repro/internal/prefetch/ppf"
	"repro/internal/prefetch/sms"
	"repro/internal/prefetch/spp"
	"repro/internal/prefetch/temporal"
	"repro/internal/prefetch/vamp"
	"repro/internal/prefetch/vldp"
	"repro/internal/vm"
)

// Config describes the simulated machine (Table I).
type Config struct {
	Core      cpu.Config
	L1I       cache.Config
	L1D       cache.Config
	L2        cache.Config
	LLC       cache.Config // per-core capacity; multi-core runs scale the sets
	MMU       vm.MMUConfig
	DRAM      dram.Config
	PhysBytes mem.Addr

	// PQDepth overrides the prefetch-queue backlog bound in cycles (the
	// engine's default when zero). Ablation knob.
	PQDepth mem.Cycle
	// DisablePromotion turns off prefetch-to-demand MSHR promotion.
	// Ablation knob.
	DisablePromotion bool
	// Replacement must be cache.ReplLRU, the policy of every level in
	// Table I and the only one modelled; so must each level's own
	// Replacement. Validate rejects any other value.
	Replacement cache.ReplPolicy
}

// DefaultConfig mirrors Table I: 4GHz 4-wide core with a 352-entry ROB,
// 48KB/12-way L1D (5 cycles, 16 MSHRs), 512KB/8-way L2 (10 cycles, 32
// MSHRs), 2MB/16-way LLC per core (20 cycles, 64 MSHRs), 64-entry L1 DTLB,
// 1536-entry L2 TLB, 3200MT/s DRAM, 8GB physical memory.
func DefaultConfig() Config {
	return Config{
		Core: cpu.DefaultConfig(),
		L1I: cache.Config{
			Name: "L1I", Sets: 32 << 10 / (64 * 8), Ways: 8,
			Latency: 4, MSHREntries: 8,
		},
		L1D: cache.Config{
			Name: "L1D", Sets: 48 << 10 / (64 * 12), Ways: 12,
			Latency: 5, MSHREntries: 16,
		},
		L2: cache.Config{
			Name: "L2C", Sets: 512 << 10 / (64 * 8), Ways: 8,
			Latency: 10, MSHREntries: 32,
		},
		LLC: cache.Config{
			Name: "LLC", Sets: 2 << 20 / (64 * 16), Ways: 16,
			Latency: 20, MSHREntries: 64,
		},
		MMU:       vm.DefaultMMUConfig(),
		DRAM:      dram.DefaultConfig(),
		PhysBytes: 8 << 30,
	}
}

// String renders the configuration as a Table-I-style listing.
func (c Config) String() string {
	return fmt.Sprintf(
		"Core: %d-wide, %d-entry ROB\n"+
			"L1I: %dKB %d-way, %d-cycle, %d-entry MSHR\n"+
			"L1D: %dKB %d-way, %d-cycle, %d-entry MSHR\n"+
			"L2C: %dKB %d-way, %d-cycle, %d-entry MSHR\n"+
			"LLC: %dMB %d-way, %d-cycle, %d-entry MSHR (per core)\n"+
			"L1 DTLB: %d-entry %d-way; L2 TLB: %d-entry %d-way, %d-cycle\n"+
			"DRAM: %d MT/s, %d channel(s), %d banks\n"+
			"Physical memory: %dGB",
		c.Core.Width, c.Core.ROBSize,
		c.L1I.Sets*c.L1I.Ways*64>>10, c.L1I.Ways, c.L1I.Latency, c.L1I.MSHREntries,
		c.L1D.Sets*c.L1D.Ways*64>>10, c.L1D.Ways, c.L1D.Latency, c.L1D.MSHREntries,
		c.L2.Sets*c.L2.Ways*64>>10, c.L2.Ways, c.L2.Latency, c.L2.MSHREntries,
		c.LLC.Sets*c.LLC.Ways*64>>20, c.LLC.Ways, c.LLC.Latency, c.LLC.MSHREntries,
		c.MMU.L1Entries, c.MMU.L1Ways, c.MMU.L2Entries, c.MMU.L2Ways, c.MMU.L2Latency,
		c.DRAM.TransferMTps, c.DRAM.Channels, c.DRAM.BanksPerChan,
		c.PhysBytes>>30,
	)
}

// L1Pref selects the optional first-level prefetcher (Figure 13).
type L1Pref string

// L1 prefetcher choices.
const (
	L1None     L1Pref = ""
	L1NextLine L1Pref = "nextline"
	L1IPCP     L1Pref = "ipcp"   // stops at 4KB virtual page boundaries
	L1IPCPPP   L1Pref = "ipcp++" // crosses boundaries when the page is TLB-resident
)

// PrefSpec selects the prefetching configuration of a run.
type PrefSpec struct {
	// Base is the L2 prefetcher: "none", the paper's four ("spp", "vldp",
	// "ppf", "bop"), or an extended base ("sms", "ampm", "temporal",
	// "pangloss", "vamp").
	Base string
	// Variant is the page-size exploitation scheme wrapped around Base.
	Variant core.Variant
	// L1 optionally enables a first-level prefetcher instead.
	L1 L1Pref
}

// String implements fmt.Stringer.
func (s PrefSpec) String() string {
	if s.Base == "" || s.Base == "none" {
		if s.L1 != L1None {
			return "L1:" + string(s.L1)
		}
		return "no-prefetch"
	}
	out := s.Base + "-" + s.Variant.String()
	if s.L1 != L1None {
		out += "+L1:" + string(s.L1)
	}
	return out
}

// BaseNames lists the four spatial L2 prefetchers the paper evaluates.
func BaseNames() []string { return []string{"spp", "vldp", "ppf", "bop"} }

// ExtendedBaseNames adds the prefetchers implemented beyond the paper's four
// (SMS from ISCA '06, AMPM from ICS '09, a GHB-style temporal prefetcher for
// the spatial-vs-temporal contrast of Section II-A, the Pangloss Markov
// delta-chain prefetcher from DPC-3, and VA-AMPM-lite operating in virtual
// address space), demonstrating that the PPM machinery wraps further designs
// unmodified.
func ExtendedBaseNames() []string {
	return append(BaseNames(), "sms", "ampm", "temporal", "pangloss", "vamp")
}

// factoryFor builds the prefetcher factory for a base name. The ISOStorage
// variant doubles every table (Figure 11's iso-storage comparison).
func factoryFor(base string, variant core.Variant) (prefetch.Factory, error) {
	scale := 1
	if variant == core.ISOStorage {
		scale = 2
	}
	switch base {
	case "spp":
		return spp.Factory(spp.DefaultConfig().Scale(scale)), nil
	case "vldp":
		return vldp.Factory(vldp.DefaultConfig().Scale(scale)), nil
	case "ppf":
		return ppf.Factory(ppf.DefaultConfig().Scale(scale)), nil
	case "bop":
		return bop.Factory(bop.DefaultConfig().Scale(scale)), nil
	case "sms":
		return sms.Factory(sms.DefaultConfig().Scale(scale)), nil
	case "ampm":
		return ampm.Factory(ampm.DefaultConfig().Scale(scale)), nil
	case "temporal":
		return temporal.Factory(temporal.DefaultConfig().Scale(scale)), nil
	case "pangloss":
		return pangloss.Factory(pangloss.DefaultConfig().Scale(scale)), nil
	case "vamp":
		return vamp.Factory(vamp.DefaultConfig().Scale(scale)), nil
	case "nextline":
		return nextline.Factory(4), nil
	}
	return nil, fmt.Errorf("sim: unknown prefetcher base %q", base)
}
