// Package dram models main memory timing: channels, banks, open-row policy
// with row-buffer hit/miss latencies, and a data bus whose bandwidth is
// derived from the configured transfer rate (MT/s). Spatial prefetch streams
// naturally enjoy row-buffer hits, reproducing the energy/ordering argument
// the paper inherits from prior spatial-prefetching work.
package dram

import (
	"math/bits"

	"repro/internal/mem"
)

// Config describes the DRAM subsystem. Latencies are in core cycles.
type Config struct {
	Channels       int
	BanksPerChan   int
	RowBytes       mem.Addr // row-buffer size per bank
	TransferMTps   int      // bus rate in mega-transfers/s (e.g. 3200)
	CoreGHz        float64  // core frequency used to convert bus time to cycles
	RowHitLatency  mem.Cycle
	RowMissLatency mem.Cycle
	// RowSlots is the number of open-row streams batched per bank
	// (DefaultRowSlots when zero).
	RowSlots int
}

// DefaultConfig mirrors Table I's 3200 MT/s DRAM under a 4GHz core.
func DefaultConfig() Config {
	return Config{
		Channels:       1,
		BanksPerChan:   8,
		RowBytes:       8 << 10,
		TransferMTps:   3200,
		CoreGHz:        4,
		RowHitLatency:  90,
		RowMissLatency: 250,
	}
}

// Stats aggregates DRAM counters.
type Stats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64
}

// RowHitRate returns the fraction of accesses that hit in an open row.
func (s *Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// DefaultRowSlots is the default number of batched open-row streams modelled
// per bank (a 32-deep FR-FCFS queue batches a handful of interleaved spatial
// streams; a strictly serial controller would have 1).
const DefaultRowSlots = 4

type rowSlot struct {
	row   mem.Addr
	valid bool
	lru   uint64
}

// DRAM is the main-memory timing model. It implements mem.Port.
type DRAM struct {
	cfg Config

	burstCycles mem.Cycle // bus occupancy per 64B block
	tick        uint64

	// busFree is a single capacity-conserving accumulator per channel:
	// every transfer adds one burst. Prefetch pressure on demands is bounded
	// upstream (the engine's serialised, depth-limited prefetch queue and
	// the MSHR demand reserve), so the bus itself is strictly first-come
	// first-served and total throughput never exceeds the bus rate.
	busFree []mem.Cycle // per channel
	// bankFree is per bank, channel-major: bank b of channel ch is entry
	// ch*BanksPerChan+b.
	bankFree []mem.Cycle
	// Each bank tracks rowSlots recently-open rows rather than one: a real
	// FR-FCFS queue batches same-row requests, so two spatial streams
	// interleaved at one bank (a demand stream and the prefetch stream
	// running ahead of it) do not pay an activation per request. The serial
	// model cannot reorder the queue; the extra slots emulate its batching.
	// Bank i's slots are openRow[i*rowSlots : (i+1)*rowSlots].
	openRow  []rowSlot
	rowSlots int

	// chanMask/rowShift/bankMask are mapAddr's masks and shift: the
	// geometry is a power of two in channels, banks and row bytes.
	chanMask mem.Addr
	rowShift int
	bankMask uint64

	Stats Stats
}

// New creates a DRAM model. Channels, BanksPerChan and RowBytes must be
// powers of two, and a row must hold at least one block.
func New(cfg Config) *DRAM {
	if !pow2(uint64(cfg.Channels)) || !pow2(uint64(cfg.BanksPerChan)) ||
		!pow2(uint64(cfg.RowBytes)) || cfg.RowBytes < mem.BlockSize {
		panic("dram: bad geometry")
	}
	if cfg.TransferMTps <= 0 || cfg.CoreGHz <= 0 {
		panic("dram: bad rate")
	}
	// A 64B block needs 8 transfers on a 64-bit bus. Time per block is
	// 8/MTps microseconds·1e-6; in core cycles: 8 * (CoreGHz*1000) / MTps.
	burst := mem.Cycle(8 * cfg.CoreGHz * 1000 / float64(cfg.TransferMTps))
	if burst < 1 {
		burst = 1
	}
	d := &DRAM{cfg: cfg, burstCycles: burst, rowSlots: cfg.RowSlots}
	if d.rowSlots <= 0 {
		d.rowSlots = DefaultRowSlots
	}
	d.chanMask = mem.Addr(cfg.Channels - 1)
	// Consecutive rows are Channels × blocks-per-row blocks apart.
	d.rowShift = bits.TrailingZeros64(uint64(cfg.Channels) * uint64(cfg.RowBytes>>mem.BlockBits))
	d.bankMask = uint64(cfg.BanksPerChan - 1)
	banks := cfg.Channels * cfg.BanksPerChan
	d.busFree = make([]mem.Cycle, cfg.Channels)
	d.bankFree = make([]mem.Cycle, banks)
	d.openRow = make([]rowSlot, banks*d.rowSlots)
	return d
}

// BurstCycles returns the bus occupancy per block in core cycles.
func (d *DRAM) BurstCycles() mem.Cycle { return d.burstCycles }

// BusyBanks returns how many banks (across all channels) are still busy at
// cycle `at` (a telemetry gauge: sampled at epoch boundaries it exposes
// bank-level queueing pressure).
func (d *DRAM) BusyBanks(at mem.Cycle) int {
	busy := 0
	for _, f := range d.bankFree {
		if f > at {
			busy++
		}
	}
	return busy
}

// mapAddr decomposes a block address into channel, bank, and row.
// Consecutive blocks stripe across channels; the bank is a hash of the row
// (permutation-based interleaving), so concurrent streams at different rows
// land on different banks instead of thrashing one row buffer.
func (d *DRAM) mapAddr(a mem.Addr) (ch, bank int, row mem.Addr) {
	blk := mem.BlockNumber(a)
	row = blk >> d.rowShift
	bank = int((uint64(row) * 0x9e3779b9) >> 16 & d.bankMask)
	return int(blk & d.chanMask), bank, row
}

func pow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Access implements mem.Port.
func (d *DRAM) Access(req *mem.Request, at mem.Cycle) mem.Cycle {
	ch, bank, row := d.mapAddr(req.PAddr)
	bi := ch*d.cfg.BanksPerChan + bank

	start := at
	if d.bankFree[bi] > start {
		start = d.bankFree[bi]
	}

	// Row hits pipeline: successive CAS commands to an open row keep the
	// bank busy only for one burst interval, so a sequential stream is
	// bus-limited, not latency-limited. A row miss occupies the bank for the
	// precharge+activate window before its burst.
	var lat mem.Cycle
	var bankBusyUntil mem.Cycle
	d.tick++
	slots := d.openRow[bi*d.rowSlots : (bi+1)*d.rowSlots]
	hit := false
	for i := range slots {
		if slots[i].valid && slots[i].row == row {
			slots[i].lru = d.tick
			hit = true
			break
		}
	}
	if hit {
		lat = d.cfg.RowHitLatency
		d.Stats.RowHits++
		bankBusyUntil = start + d.burstCycles
	} else {
		lat = d.cfg.RowMissLatency
		d.Stats.RowMisses++
		v := 0
		for i := range slots {
			if !slots[i].valid {
				v = i
				break
			}
			if slots[i].lru < slots[v].lru {
				v = i
			}
		}
		slots[v] = rowSlot{row: row, valid: true, lru: d.tick}
		bankBusyUntil = start + (lat - d.cfg.RowHitLatency) + d.burstCycles
	}
	d.bankFree[bi] = bankBusyUntil

	dataReady := start + lat
	if d.busFree[ch] > dataReady {
		dataReady = d.busFree[ch]
	}
	done := dataReady + d.burstCycles
	d.busFree[ch] = done

	if req.Type == mem.Writeback {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	return done
}
