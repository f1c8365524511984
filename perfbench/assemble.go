package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/ampm"
	"repro/internal/prefetch/bop"
	"repro/internal/prefetch/ipcp"
	"repro/internal/prefetch/nextline"
	"repro/internal/prefetch/pangloss"
	"repro/internal/prefetch/ppf"
	"repro/internal/prefetch/sms"
	"repro/internal/prefetch/spp"
	"repro/internal/prefetch/temporal"
	"repro/internal/prefetch/vamp"
	"repro/internal/prefetch/vldp"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// machine is a single-core system assembled from the layers' public
// constructors exactly as sim.Run assembles it. With a tracer, each interface
// seam the program already has — the trace reader, the core's memory system,
// the walker's port, the L2's observer and the LLC's next port — is a timing
// wrapper; the devirtualized L1→L2→LLC chain stays intact.
type machine struct {
	alloc  *vm.Allocator
	dram   *dram.DRAM
	llc    *cache.Cache
	l2     *cache.Cache
	l1d    *cache.Cache
	mmu    *vm.MMU
	engine *core.Engine
	cpu    *cpu.Core
	reader trace.Reader
}

// assemble mirrors sim's single-core system construction, in the same order
// (the physical allocator is seeded, so allocation order is part of the
// result).
func assemble(cfg sim.Config, spec sim.PrefSpec, w trace.Workload, seed uint64, t *tracer) (*machine, error) {
	m := &machine{}
	m.alloc = vm.NewAllocator(cfg.PhysBytes, seed)
	m.dram = dram.New(cfg.DRAM)

	dramLat := cfg.DRAM.RowMissLatency + m.dram.BurstCycles()
	llcCfg := cfg.LLC
	llcCfg.Replacement = cfg.Replacement
	llcCfg.PromoteLatency = dramLat
	if cfg.DisablePromotion {
		llcCfg.PromoteLatency = 0
	}
	var dramPort mem.Port = m.dram
	if t != nil {
		dramPort = &dramSeam{t: t, d: m.dram}
	}
	m.llc = cache.New(llcCfg, dramPort)

	oracle := core.Oracle(m.alloc.PageSizeOf)
	walkArena := mem.NewRequestArena(0)

	n := &node{t: t, l1Kind: spec.L1}
	n.space = vm.NewAddressSpace(m.alloc, w.THP)
	l2Cfg := cfg.L2
	l2Cfg.Replacement = cfg.Replacement
	l2Cfg.PromoteLatency = cfg.LLC.Latency + dramLat
	l1Cfg := cfg.L1D
	l1Cfg.Replacement = cfg.Replacement
	l1Cfg.PromoteLatency = cfg.L2.Latency + cfg.LLC.Latency + dramLat
	if cfg.DisablePromotion {
		l2Cfg.PromoteLatency = 0
		l1Cfg.PromoteLatency = 0
	}
	m.l2 = cache.New(l2Cfg, m.llc)
	m.l1d = cache.New(l1Cfg, m.l2)
	n.l1d = m.l1d
	n.l1i = cache.New(cfg.L1I, m.l2)
	n.codeSpace = vm.NewAddressSpace(m.alloc, vm.FractionTHP{Frac: 0})
	n.desc = cache.NewDescent(m.l1d, m.l2, m.llc)
	var walkPort mem.Port = n.desc
	if t != nil {
		walkPort = &walkSeam{t: t, d: n.desc}
	}
	m.mmu = vm.NewMMU(n.space, cfg.MMU, 0, walkPort)
	m.mmu.SetWalkArena(walkArena)
	n.mmu = m.mmu
	m.reader = w.New(seed)
	if t != nil {
		br, ok := m.reader.(trace.BatchReader)
		if !ok {
			return nil, fmt.Errorf("%s: reader %T does not batch", w.Name, m.reader)
		}
		m.reader = &readerSeam{t: t, r: br}
	}

	engines := []*core.Engine{nil}
	if spec.Base != "" && spec.Base != "none" {
		factory, err := factoryFor(spec.Base, spec.Variant)
		if err != nil {
			return nil, err
		}
		m.engine = core.New(factory, spec.Variant, m.l2, m.llc, oracle, 0)
		mmu := m.mmu
		m.engine.SetTranslator(func(v mem.Addr) (mem.Addr, mem.PageSize, bool) {
			tr, ok := mmu.ResidentTranslate(v)
			if !ok {
				return 0, 0, false
			}
			return tr.PAddr, tr.Size, true
		})
		if cfg.PQDepth > 0 {
			m.engine.PQDepth = cfg.PQDepth
		}
		var obs cache.Observer = m.engine
		if t != nil {
			obs = &engineSeam{t: t, e: m.engine}
		}
		m.l2.SetObserver(obs)
		engines[0] = m.engine
	}
	if spec.L1 == sim.L1IPCP || spec.L1 == sim.L1IPCPPP {
		n.l1pf = ipcp.New(ipcp.DefaultConfig())
	}
	m.cpu = cpu.New(cfg.Core, n)
	m.llc.SetObserver(&core.LLCFeedback{Engines: engines})
	return m, nil
}

// factoryFor mirrors the sim package's prefetcher factory table.
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
	return nil, fmt.Errorf("unknown prefetcher base %q", base)
}

// resetStats zeroes the measured counters after warm-up, as sim.Run does.
func (m *machine) resetStats() {
	m.llc.Stats = cache.Stats{}
	m.dram.Stats = dram.Stats{}
	m.l1d.Stats = cache.Stats{}
	m.l2.Stats = cache.Stats{}
	if m.engine != nil {
		m.engine.Stats = core.Stats{}
	}
	m.mmu.L1().Hits, m.mmu.L1().Misses = 0, 0
	m.mmu.L2().Hits, m.mmu.L2().Misses = 0, 0
	m.mmu.L1().HitsBy = [mem.NumPageSizes]uint64{}
	m.mmu.L2().HitsBy = [mem.NumPageSizes]uint64{}
	m.mmu.Walks, m.mmu.WalkRefs = 0, 0
	m.mmu.WalksBy = [mem.NumPageSizes]uint64{}
}

// phases is the host time of one simulation's three phases.
type phases struct{ construct, warmup, measure time.Duration }

// simulate runs one job through an outside assembly the way sim.Run drives
// its system: warm-up, counter reset, then the measured window in Frac2M
// sampling chunks. With a tracer, tracing covers the measured window only.
func simulate(cfg sim.Config, j job, opt sim.RunOpt, t *tracer) (sim.Result, phases, error) {
	var ph phases
	t0 := time.Now()
	m, err := assemble(cfg, j.spec, j.workload, opt.Seed, t)
	if err != nil {
		return sim.Result{}, ph, err
	}
	t1 := time.Now()
	if opt.Warmup > 0 {
		m.cpu.Run(m.reader, opt.Warmup)
	}
	m.resetStats()
	t2 := time.Now()
	ph.construct, ph.warmup = t1.Sub(t0), t2.Sub(t1)

	instrStart, cycleStart := m.cpu.Instructions, m.cpu.Cycle
	samples := opt.Samples
	if samples <= 0 {
		samples = 1
	}
	res := sim.Result{Workload: j.workload.Name, Spec: j.spec.String()}
	if opt.Instructions > 0 {
		res.Frac2MOverTime = make([]float64, 0, samples+1)
	}
	chunk := opt.Instructions / uint64(samples)
	if chunk == 0 {
		chunk = opt.Instructions
	}
	if t != nil {
		t.begin()
	}
	var run uint64
	nextSample := min(chunk, opt.Instructions)
	for run < opt.Instructions {
		target := nextSample
		var got uint64
		if t != nil {
			s := t.enter()
			got = m.cpu.Run(m.reader, target-run)
			t.exit(layerCPU, s)
		} else {
			got = m.cpu.Run(m.reader, target-run)
		}
		run += got
		drained := run < target
		if run == nextSample || drained {
			res.Frac2MOverTime = append(res.Frac2MOverTime, m.alloc.Frac2M())
			nextSample = min(nextSample+chunk, opt.Instructions)
		}
		if drained {
			break
		}
	}
	if t != nil {
		t.end()
	}
	ph.measure = time.Since(t2)

	res.Instructions = m.cpu.Instructions - instrStart
	res.Cycles = m.cpu.Cycle - cycleStart
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	res.L1D = m.l1d.Stats
	res.L2 = m.l2.Stats
	res.LLC = m.llc.Stats
	if m.engine != nil {
		res.Engine = m.engine.Stats
	}
	res.DRAM = m.dram.Stats
	res.TLBL1Hits, res.TLBL1Misses = m.mmu.L1().Hits, m.mmu.L1().Misses
	res.TLBL2Hits, res.TLBL2Misses = m.mmu.L2().Hits, m.mmu.L2().Misses
	res.Walks = m.mmu.Walks
	if len(res.Frac2MOverTime) > 0 {
		res.Frac2MFinal = res.Frac2MOverTime[len(res.Frac2MOverTime)-1]
	}
	if t != nil {
		t.walkRefs += m.mmu.WalkRefs
		t.dramOps += m.dram.Stats.Reads + m.dram.Stats.Writes
	}
	return res, ph, nil
}

// node is the core's memory system, as sim assembles it: translate, access
// the L1D through the fused descent, run the optional L1 prefetcher; and the
// instruction-fetch path through the L1I.
type node struct {
	t         *tracer
	space     *vm.AddressSpace
	codeSpace *vm.AddressSpace
	mmu       *vm.MMU
	l1d, l1i  *cache.Cache
	desc      *cache.Descent

	l1Kind  sim.L1Pref
	l1pf    *ipcp.Prefetcher
	candBuf []ipcp.Candidate

	demandPool mem.RequestPool
	fetchPool  mem.RequestPool
	l1pfPool   mem.RequestPool
}

// Access implements cpu.MemSystem.
func (n *node) Access(pc, vaddr mem.Addr, write bool, at mem.Cycle) mem.Cycle {
	t := n.t
	on := t != nil && t.on
	var s0, s int64
	if on {
		s0 = t.enter()
		t.accesses++
		s = t.enter()
	}
	tr, ready := n.mmu.Translate(vaddr, at)
	if on {
		t.exit(layerVM, s)
	}
	typ := mem.Load
	if write {
		typ = mem.Store
	}
	req := n.demandPool.GetDirty()
	*req = mem.Request{
		PAddr:         tr.PAddr,
		VAddr:         vaddr,
		PC:            pc,
		Type:          typ,
		PageSize:      tr.Size,
		PageSizeKnown: true,
	}
	if on {
		s = t.enter()
	}
	done := n.desc.Access(req, ready)
	if on {
		t.exit(layerCache, s)
	}
	n.l1Prefetch(pc, vaddr, at, tr, on)
	if on {
		t.exit(layerSim, s0)
	}
	return done
}

// FetchInstr implements cpu.InstrFetcher.
func (n *node) FetchInstr(pc mem.Addr, at mem.Cycle) mem.Cycle {
	t := n.t
	on := t != nil && t.on
	var s0, s int64
	if on {
		s0 = t.enter()
	}
	tr := n.codeSpace.Translate(pc)
	req := n.fetchPool.GetDirty()
	*req = mem.Request{
		PAddr:         tr.PAddr,
		VAddr:         pc,
		PC:            pc,
		Type:          mem.Fetch,
		PageSize:      mem.Page4K,
		PageSizeKnown: true,
	}
	if on {
		s = t.enter()
	}
	done := n.l1i.Access(req, at)
	if on {
		t.exit(layerCache, s)
		t.exit(layerSim, s0)
	}
	return done
}

func (n *node) l1Prefetch(pc, vaddr mem.Addr, at mem.Cycle, tr vm.Translation, on bool) {
	switch n.l1Kind {
	case sim.L1None:
		return
	case sim.L1NextLine:
		cand := mem.BlockAlign(vaddr) + mem.BlockSize
		if mem.SamePage(vaddr, cand, mem.Page4K) {
			n.issueL1(cand, vaddr, tr, at, pc, on)
		}
	case sim.L1IPCP, sim.L1IPCPPP:
		var s int64
		if on {
			s = n.t.enter()
		}
		n.candBuf = n.l1pf.Operate(pc, vaddr, n.candBuf[:0])
		if on {
			n.t.exit(layerPrefetch, s)
		}
		for _, c := range n.candBuf {
			if mem.SamePage(vaddr, c.VAddr, mem.Page4K) {
				n.issueL1(c.VAddr, vaddr, tr, at, pc, on)
				continue
			}
			if n.l1Kind == sim.L1IPCPPP && n.mmu.Resident(c.VAddr) {
				n.issueL1(c.VAddr, vaddr, tr, at, pc, on)
			}
		}
	}
}

func (n *node) issueL1(cand, trigger mem.Addr, tr vm.Translation, at mem.Cycle, pc mem.Addr, on bool) {
	var paddr mem.Addr
	var size mem.PageSize
	if mem.SamePage(trigger, cand, tr.Size) {
		paddr = mem.PageBase(tr.PAddr, tr.Size) + (cand & (tr.Size.Bytes() - 1))
		size = tr.Size
	} else {
		ct, ok := n.space.LookupOnly(cand)
		if !ok {
			return
		}
		paddr, size = ct.PAddr, ct.Size
	}
	req := n.l1pfPool.GetDirty()
	*req = mem.Request{
		PAddr:         mem.BlockAlign(paddr),
		VAddr:         cand,
		PC:            pc,
		Type:          mem.Prefetch,
		PageSize:      size,
		PageSizeKnown: true,
		FillL2:        true,
	}
	var s int64
	if on {
		s = n.t.enter()
	}
	n.l1d.Access(req, at)
	if on {
		n.t.exit(layerCache, s)
	}
}
