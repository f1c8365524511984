// Package cpu models the out-of-order core: a 4-wide fetch/retire pipeline
// over a reorder buffer whose size bounds memory-level parallelism. Loads
// complete when the memory system returns their data; non-memory instructions
// and stores (drained through a store buffer) complete immediately. The model
// advances cycle by cycle but jumps over idle gaps, which makes long-latency
// phases cheap to simulate while preserving ROB-limited MLP — the property
// through which prefetching timeliness becomes IPC.
package cpu

import (
	"repro/internal/mem"
	"repro/internal/slabpool"
	"repro/internal/trace"
)

// Config describes the core (Table I: 4-wide, 352-entry ROB).
type Config struct {
	Width    int
	ROBSize  int
	StoreBuf int // store-buffer entries; stores drain to memory through it
}

// DefaultConfig mirrors Table I, with a 64-entry store buffer.
func DefaultConfig() Config { return Config{Width: 4, ROBSize: 352, StoreBuf: 64} }

// MemSystem is the core's view of the memory hierarchy: translate and
// access, returning the data-ready cycle. The sim package implements it with
// MMU + L1D (+ optional L1 prefetcher).
type MemSystem interface {
	Access(pc, vaddr mem.Addr, write bool, at mem.Cycle) mem.Cycle
}

// InstrFetcher is an optional extension of MemSystem: when implemented, the
// core fetches each new instruction block through it (the L1I path), and
// front-end misses stall instruction delivery.
type InstrFetcher interface {
	FetchInstr(pc mem.Addr, at mem.Cycle) mem.Cycle
}

// Core executes a trace against a memory system.
type Core struct {
	cfg Config
	ms  MemSystem

	// slab owns the storage rob, robKind, sbFree and batch view; it
	// outlives the core through Release.
	slab *slab

	// rob is a ring buffer of completion cycles. head and tail wrap by
	// conditional reset rather than modulo (ROBSize is 352, not a power of
	// two, and the push/retire loops are the innermost CPU path); tail always
	// equals (head+size) mod ROBSize.
	rob        []mem.Cycle
	robKind    []uint8 // 0 other, 1 load, 2 store
	head, tail int
	size       int

	// ifetch is the optional front end (nil: ideal instruction delivery).
	ifetch InstrFetcher
	// lastIBlock is the last instruction block fetched; fetchReady gates
	// instruction delivery after an L1I miss.
	lastIBlock mem.Addr
	fetchReady mem.Cycle

	// sbFree holds each store-buffer entry's next-free cycle. A store
	// retires once a slot is available; the slot is held until the write
	// completes in memory, so sustained store misses throttle to the memory
	// system's service rate instead of injecting unbounded traffic.
	sbFree []mem.Cycle

	// pending carries a trace access read but not yet pushed into the ROB
	// across Run/RunUntil boundaries. Keeping it in the core (rather than a
	// local of the run loop) makes execution independent of how callers chunk
	// their Run calls: an instruction fetched just before an instruction or
	// cycle bound is issued by the next call instead of being dropped.
	pending     trace.Access
	havePending bool
	pendGap     int // non-memory ops still to issue before pending

	// batch is the decoded slab consumed ahead of the fetch loop when the
	// reader implements trace.BatchReader: the source decodes batchSize
	// accesses per call instead of paying an interface dispatch per access.
	// batchSrc guards reader identity so a caller switching readers between
	// RunUntil calls never replays another stream's readahead.
	batch              []trace.Access
	batchPos, batchLen int
	batchSrc           trace.Reader

	// slotCycle/slotRetired/slotFetched carry the current cycle's consumed
	// retire and fetch bandwidth across RunUntil boundaries. When a call
	// returns mid-cycle (the instruction bound lands inside the retire burst),
	// the next call resumes the same cycle with the remaining budget instead
	// of granting a fresh Width — without this a chunked run retires more per
	// cycle at every chunk boundary than a monolithic one.
	slotCycle   mem.Cycle
	slotRetired int
	slotFetched int

	// Cycle is the current simulated time; Instructions the retired count.
	Cycle        mem.Cycle
	Instructions uint64
	Loads        uint64
	Stores       uint64

	// StallLoad / StallStore / StallOther attribute head-of-ROB stall cycles
	// (debug accounting).
	StallLoad, StallStore, StallOther mem.Cycle
}

// New creates a core over the memory system. Its ROB, store buffer and
// trace batch come from the pool when a released core of the same shape
// left them there; Release hands them back.
func New(cfg Config, ms MemSystem) *Core {
	if cfg.Width <= 0 || cfg.ROBSize <= 0 {
		panic("cpu: bad config")
	}
	sb := cfg.StoreBuf
	if sb <= 0 {
		sb = 64
	}
	return newOn(cfg, ms, getSlab(cfg.ROBSize, sb))
}

// newOn builds a core over ms on storage s, which must be all clear (a new
// slab or a reset one) and sized for cfg's ROB and store buffer.
func newOn(cfg Config, ms MemSystem, s *slab) *Core {
	rob := cfg.ROBSize
	c := &Core{cfg: cfg, ms: ms, slab: s, rob: s.cycles[:rob:rob],
		robKind: s.robKind, sbFree: s.cycles[rob:], batch: s.batch}
	if f, ok := ms.(InstrFetcher); ok {
		c.ifetch = f
	}
	return c
}

// slab is a core's storage: the ROB's completion cycles followed by the
// store buffer's free cycles in one array, the ROB's entry kinds, and the
// trace batch once a batching reader needed it. A slab outlives its core:
// Release resets it and hands it to the next core with the same ROB and
// store buffer.
type slab struct {
	cycles  []mem.Cycle
	robKind []uint8
	batch   []trace.Access
}

// slabs pools core storage by slabpool.Key(ROB entries, store-buffer
// entries).
var slabs slabpool.Table[slab]

// getSlab returns all-clear storage for a core with rob ROB entries and sb
// store-buffer entries: a released slab when the shape's pool holds one, a
// newly allocated one otherwise.
func getSlab(rob, sb int) *slab {
	if s := slabs.Pool(slabpool.Key(rob, sb)).Get(); s != nil {
		return s
	}
	return newSlab(rob, sb)
}

// newSlab allocates all-clear storage for a core with rob ROB entries and sb
// store-buffer entries. The batch comes later, with the first batching
// reader.
func newSlab(rob, sb int) *slab {
	return &slab{cycles: make([]mem.Cycle, rob+sb), robKind: make([]uint8, rob)}
}

// reset clears the ROB and the store buffer. The batch keeps its stale
// accesses: a core reads it only up to what its reader decoded into it.
func (s *slab) reset() {
	clear(s.cycles)
	clear(s.robKind)
}

// Release returns the core's storage to the pool for the next core with the
// same ROB and store buffer. The core must not run afterwards; its counters
// (Cycle, Instructions, Loads, Stores, the stall cycles) and ROBOccupancy
// stay readable. Releasing twice is a no-op.
func (c *Core) Release() {
	s := c.slab
	if s == nil {
		return
	}
	key := slabpool.Key(len(c.rob), len(c.sbFree))
	c.slab, c.rob, c.robKind, c.sbFree, c.batch = nil, nil, nil, nil, nil
	if p := slabs.Pool(key); p != nil {
		s.reset()
		p.Put(s)
	}
}

// batchSize is the decoded-slab length: long enough to amortise the batch
// call, short enough that the readahead stays resident in L1/L2 (512 accesses
// × 32 bytes = 16KB).
const batchSize = 512

// nextAccess fills c.pending with the next trace access, draining the decoded
// slab first and refilling it from a BatchReader when the source supports
// batching. The readahead lives in the core, so chunked RunUntil calls see
// exactly the stream a monolithic run would.
func (c *Core) nextAccess(r trace.Reader) bool {
	if r != c.batchSrc {
		c.batchPos, c.batchLen, c.batchSrc = 0, 0, r
	}
	if c.batchPos < c.batchLen {
		c.pending = c.batch[c.batchPos]
		c.batchPos++
		return true
	}
	if br, ok := r.(trace.BatchReader); ok {
		if c.batch == nil {
			c.batch = make([]trace.Access, batchSize)
			c.slab.batch = c.batch
		}
		c.batchLen = br.NextBatch(c.batch)
		if c.batchLen == 0 {
			return false
		}
		c.pending = c.batch[0]
		c.batchPos = 1
		return true
	}
	return r.Next(&c.pending)
}

func (c *Core) push(done mem.Cycle) { c.pushKind(done, 0) }

func (c *Core) pushKind(done mem.Cycle, kind uint8) {
	c.rob[c.tail] = done
	c.robKind[c.tail] = kind
	if c.tail++; c.tail == c.cfg.ROBSize {
		c.tail = 0
	}
	c.size++
}

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.Cycle == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycle)
}

// ROBOccupancy returns the number of in-flight ROB entries (a telemetry
// gauge; sampled at epoch boundaries it exposes how deeply the window is
// backed up behind long-latency misses).
func (c *Core) ROBOccupancy() int { return c.size }

// Run executes up to maxInstructions from the reader (the trace may end
// sooner) and returns the number retired. Run may be called repeatedly (e.g.
// a warm-up run followed by a measured run with fresh counters).
func (c *Core) Run(r trace.Reader, maxInstructions uint64) uint64 {
	return c.RunUntil(r, maxInstructions, 1<<62)
}

// RunUntil executes until maxInstructions retire, the trace drains, or the
// core's clock reaches untilCycle — whichever comes first. The cycle bound is
// what keeps multiple cores time-aligned on shared resources: the multi-core
// driver advances all cores epoch by epoch, so no core's requests run far
// ahead of its peers' clocks.
func (c *Core) RunUntil(r trace.Reader, maxInstructions uint64, untilCycle mem.Cycle) uint64 {
	start := c.Instructions
	fetchedAll := false

	for c.Instructions-start < maxInstructions && c.Cycle < untilCycle {
		// Retire up to Width completed instructions from the ROB head,
		// resuming any bandwidth already consumed this cycle by a previous
		// call that returned mid-cycle.
		retired, fetched := 0, 0
		if c.Cycle == c.slotCycle {
			retired, fetched = c.slotRetired, c.slotFetched
		}
		for c.size > 0 && retired < c.cfg.Width && c.rob[c.head] <= c.Cycle {
			if c.head++; c.head == c.cfg.ROBSize {
				c.head = 0
			}
			c.size--
			retired++
			c.Instructions++
			if c.Instructions-start >= maxInstructions {
				c.slotCycle, c.slotRetired, c.slotFetched = c.Cycle, retired, fetched
				return c.Instructions - start
			}
		}

		// Fetch up to Width instructions into the ROB.
		for !fetchedAll && c.size < c.cfg.ROBSize && fetched < c.cfg.Width {
			if !c.havePending {
				if !c.nextAccess(r) {
					fetchedAll = true
					break
				}
				c.pendGap = c.pending.Gap
				c.havePending = true
			}
			if c.fetchReady > c.Cycle {
				break // front-end stall: an instruction block is in flight
			}
			if c.ifetch != nil {
				if blk := mem.BlockAlign(c.pending.PC); blk != c.lastIBlock {
					c.lastIBlock = blk
					if done := c.ifetch.FetchInstr(c.pending.PC, c.Cycle); done > c.Cycle {
						c.fetchReady = done
						break
					}
				}
			}
			if c.pendGap > 0 {
				// Batch the cycle's worth of non-memory ops: the front-end
				// checks above are no-ops for repeats at the same cycle (the
				// instruction block was just fetched), so pushing k entries at
				// once retires exactly like pushing them one loop pass each.
				k := c.pendGap
				if w := c.cfg.Width - fetched; k > w {
					k = w
				}
				if s := c.cfg.ROBSize - c.size; k > s {
					k = s
				}
				c.pendGap -= k
				fetched += k - 1 // the loop footer counts the last one
				for j := 0; j < k; j++ {
					c.push(c.Cycle) // non-memory op: completes immediately
				}
			} else {
				if c.pending.Write {
					// Stores allocate a store-buffer slot; they retire as
					// soon as a slot is free and hold it until the write
					// completes in memory.
					c.Stores++
					// Any slot already free at the current cycle is as good as
					// the true earliest: the clock never goes backwards, so the
					// other free-now slots stay free for every later store and
					// the observable start times are identical. Only when the
					// whole buffer is busy does the argmin matter.
					slot, start := 0, c.sbFree[0]
					if start > c.Cycle {
						for i, f := range c.sbFree {
							if f <= c.Cycle {
								slot, start = i, f
								break
							}
							if f < start {
								slot, start = i, f
							}
						}
					}
					if start < c.Cycle {
						start = c.Cycle
					}
					c.sbFree[slot] = c.ms.Access(c.pending.PC, c.pending.VAddr, true, start)
					done := start
					c.pushKind(done, 2)
					c.havePending = false
					fetched++
					continue
				}
				done := c.ms.Access(c.pending.PC, c.pending.VAddr, c.pending.Write, c.Cycle)
				c.Loads++
				c.pushKind(done, 1)
				c.havePending = false
			}
			fetched++
		}

		if fetchedAll && c.size == 0 {
			break // trace drained
		}
		if retired == 0 && fetched == 0 && c.size > 0 {
			// Stalled on the ROB head (or a full ROB): jump to its completion,
			// or to front-end readiness if that comes first.
			next := c.rob[c.head]
			if c.fetchReady > c.Cycle && (c.fetchReady < next || c.size < c.cfg.ROBSize) {
				if c.fetchReady < next {
					next = c.fetchReady
				}
			}
			if next > c.Cycle {
				switch c.robKind[c.head] {
				case 1:
					c.StallLoad += next - c.Cycle
				case 2:
					c.StallStore += next - c.Cycle
				default:
					c.StallOther += next - c.Cycle
				}
				c.Cycle = next
				continue
			}
		}
		if retired == 0 && fetched == 0 && c.size == 0 && c.fetchReady > c.Cycle {
			c.Cycle = c.fetchReady // empty machine waiting on the front end
			continue
		}
		c.Cycle++
	}
	return c.Instructions - start
}
