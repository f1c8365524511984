// Package ipcp implements the Instruction Pointer Classifier-based spatial
// Prefetcher (Pakalapati & Panda, ISCA 2020), the state-of-the-art L1D
// prefetcher the paper compares against in Figure 13. IPCP classifies each
// load IP into constant-stride (CS), complex-stride (CPLX), or global-stream
// (GS) classes and prefetches accordingly.
//
// Unlike the L2 prefetchers, IPCP operates on virtual addresses at L1D access
// time. It proposes raw virtual candidates; the simulation driver enforces
// the 4KB virtual page boundary for the original IPCP and the TLB-residency
// rule for the boundary-crossing IPCP++ variant.
package ipcp

import (
	"repro/internal/mem"
	"repro/internal/slabpool"
)

// Config sizes IPCP's structures.
type Config struct {
	IPTableEntries int // IP tracking table (64)
	CSPTEntries    int // complex stride prediction table (128)
	CSDegree       int // constant-stride prefetch degree (4)
	CPLXDegree     int // complex-stride chained degree (3)
	GSDegree       int // global-stream next-line degree (6)
	RegionTrack    int // recent regions tracked for stream density (8)
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{
		IPTableEntries: 64,
		CSPTEntries:    128,
		CSDegree:       4,
		CPLXDegree:     3,
		GSDegree:       6,
		RegionTrack:    8,
	}
}

// Class is an IP classification.
type Class uint8

// IP classes, in priority order.
const (
	ClassNone Class = iota
	ClassGS         // global stream: dense region access
	ClassCS         // constant stride
	ClassCPLX       // complex (recurring) stride sequence
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassGS:
		return "GS"
	case ClassCS:
		return "CS"
	case ClassCPLX:
		return "CPLX"
	}
	return "none"
}

// Candidate is a proposed virtual-address prefetch.
type Candidate struct {
	VAddr mem.Addr
	Class Class
}

type ipEntry struct {
	tag       mem.Addr
	valid     bool
	lastBlock mem.Addr
	stride    int
	conf      int // 2-bit saturating for CS
	sig       uint16
	streamHit int
}

type csptEntry struct {
	stride int
	conf   int
	valid  bool
}

type regionEntry struct {
	region mem.Addr
	bitmap uint64 // one bit per block in a 4KB region
	lru    uint64
}

// Prefetcher is an IPCP instance.
type Prefetcher struct {
	cfg Config
	// slab owns ipt, cspt and regions; Release hands it to the next instance
	// of the same shape.
	slab    *slab
	ipt     []ipEntry
	cspt    []csptEntry
	regions []regionEntry
	tick    uint64
}

// New creates an IPCP prefetcher.
func New(cfg Config) *Prefetcher {
	s := slabs.Pool(slabKey(cfg)).Get()
	if s == nil {
		s = &slab{
			ipt:     make([]ipEntry, cfg.IPTableEntries),
			cspt:    make([]csptEntry, cfg.CSPTEntries),
			regions: make([]regionEntry, cfg.RegionTrack),
		}
	}
	return &Prefetcher{cfg: cfg, slab: s, ipt: s.ipt, cspt: s.cspt, regions: s.regions}
}

// slab is an instance's tables. A slab outlives its instance: Release resets
// it and hands it to the next instance with the same table sizes.
type slab struct {
	ipt     []ipEntry
	cspt    []csptEntry
	regions []regionEntry
}

// slabs pools tables by slabKey.
var slabs slabpool.Table[slab]

// slabKey is the shape of cfg's tables.
func slabKey(cfg Config) uint64 {
	return slabpool.Key4(cfg.IPTableEntries, cfg.CSPTEntries, cfg.RegionTrack, 0)
}

// Release clears the tables, which is cheaper than testing each entry for
// use, and offers them to the next instance of the same shape. The
// prefetcher must not run afterwards: Operate panics. Releasing twice is a
// no-op.
func (p *Prefetcher) Release() {
	s := p.slab
	if s == nil {
		return
	}
	p.slab, p.ipt, p.cspt, p.regions = nil, nil, nil, nil
	if pool := slabs.Pool(slabKey(p.cfg)); pool != nil {
		clear(s.ipt)
		clear(s.cspt)
		clear(s.regions)
		pool.Put(s)
	}
}

// regionDensity records the access and returns the population of the 4KB
// region's bitmap, the GS-class signal.
func (p *Prefetcher) regionDensity(vaddr mem.Addr) int {
	reg := mem.PageBase(vaddr, mem.Page4K)
	bit := uint(mem.BlockOffsetInPage(vaddr, mem.Page4K))
	p.tick++
	var slot *regionEntry
	for i := range p.regions {
		if p.regions[i].region == reg && p.regions[i].bitmap != 0 {
			slot = &p.regions[i]
			break
		}
	}
	if slot == nil {
		slot = &p.regions[0]
		for i := range p.regions {
			if p.regions[i].lru < slot.lru {
				slot = &p.regions[i]
			}
		}
		*slot = regionEntry{region: reg}
	}
	slot.bitmap |= 1 << bit
	slot.lru = p.tick
	pop := 0
	for b := slot.bitmap; b != 0; b &= b - 1 {
		pop++
	}
	return pop
}

// Operate observes an L1D access and appends prefetch candidates to out,
// returning the extended slice (callers may reuse the backing array).
func (p *Prefetcher) Operate(pc, vaddr mem.Addr, out []Candidate) []Candidate {
	blk := mem.BlockNumber(vaddr)
	e := &p.ipt[int(uint64(pc)>>2)%p.cfg.IPTableEntries]

	density := p.regionDensity(vaddr)

	if !e.valid || e.tag != pc {
		*e = ipEntry{tag: pc, valid: true, lastBlock: blk}
		return out
	}
	stride := int(int64(blk) - int64(e.lastBlock))
	if stride == 0 {
		return out
	}

	// Train the complex-stride table under the previous signature.
	ce := &p.cspt[int(e.sig)%p.cfg.CSPTEntries]
	if ce.valid && ce.stride == stride {
		if ce.conf < 3 {
			ce.conf++
		}
	} else if !ce.valid || ce.conf == 0 {
		*ce = csptEntry{stride: stride, conf: 0, valid: true}
	} else {
		ce.conf--
	}

	// Constant-stride confidence.
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf < 0 {
			e.stride = stride
			e.conf = 0
		}
	}

	sig := ((e.sig << 4) ^ uint16(stride&0xf)) & 0xfff
	e.sig = sig
	e.lastBlock = blk

	switch {
	case density >= 12 && (stride == 1 || stride == -1):
		// Dense region + unit stride: global stream. Deep next-line burst.
		e.streamHit++
		dir := mem.Addr(mem.BlockSize)
		if stride < 0 {
			dir = ^mem.Addr(mem.BlockSize) + 1 // -64
		}
		a := mem.BlockAlign(vaddr)
		for i := 0; i < p.cfg.GSDegree; i++ {
			a += dir
			out = append(out, Candidate{VAddr: a, Class: ClassGS})
		}
	case e.conf >= 2:
		// Constant stride.
		a := mem.BlockAlign(vaddr)
		for i := 1; i <= p.cfg.CSDegree; i++ {
			out = append(out, Candidate{
				VAddr: a + mem.Addr(int64(i*e.stride))*mem.BlockSize,
				Class: ClassCS,
			})
		}
	default:
		// Complex stride: chain CSPT predictions.
		a := mem.BlockAlign(vaddr)
		s := sig
		for i := 0; i < p.cfg.CPLXDegree; i++ {
			c := &p.cspt[int(s)%p.cfg.CSPTEntries]
			if !c.valid || c.conf < 1 {
				break
			}
			a += mem.Addr(int64(c.stride)) * mem.BlockSize
			out = append(out, Candidate{VAddr: a, Class: ClassCPLX})
			s = ((s << 4) ^ uint16(c.stride&0xf)) & 0xfff
		}
	}
	return out
}
