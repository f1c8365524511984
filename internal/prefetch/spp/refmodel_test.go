package spp

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/recency"
)

// refPatternTable is a naive model of the Pattern Table and its lookahead
// walk: a map from table index to an entry with plain-int counters and a
// slice of delta slots, written straight from the SPP design with no packed
// types or precomputed ratios.
type refPatternTable struct {
	entries, slots, counterMax int
	regionBits, sigBits        uint
	maxLookahead               int
	fillT, llcT                float64
	pt                         map[int]*refPTEntry
}

type refPTEntry struct {
	csig   int
	deltas []refSlot
}

type refSlot struct{ delta, c int }

// refCand is one proposed candidate with its lookahead step.
type refCand struct {
	cand prefetch.Candidate
	meta Meta
}

// refExit is the region exit a lookahead records for GHR bootstrap.
type refExit struct{ sig, lastOffset, delta int }

func newRefPatternTable(cfg Config, regionBits uint) *refPatternTable {
	return &refPatternTable{
		entries: cfg.PTEntries, slots: cfg.DeltaSlots, counterMax: cfg.CounterMax,
		regionBits: regionBits, sigBits: cfg.SigBits, maxLookahead: cfg.MaxLookahead,
		fillT: cfg.FillThreshold, llcT: cfg.LLCThreshold,
		pt: map[int]*refPTEntry{},
	}
}

func (r *refPatternTable) entry(sig int) *refPTEntry {
	i := sig % r.entries
	if r.pt[i] == nil {
		r.pt[i] = &refPTEntry{deltas: make([]refSlot, r.slots)}
	}
	return r.pt[i]
}

func (r *refPatternTable) nextSig(sig, delta int) int {
	enc := delta
	if enc < 0 {
		enc = -enc | 1<<6
	}
	return (sig<<3 ^ enc) & (1<<r.sigBits - 1)
}

// update halves every counter of a saturated entry, counts the signature,
// and counts the delta in its slot — or, when no live slot holds it, in the
// first slot with the smallest count, reset to zero first.
func (r *refPatternTable) update(sig, delta int) {
	e := r.entry(sig)
	if e.csig >= r.counterMax {
		e.csig /= 2
		for i := range e.deltas {
			e.deltas[i].c /= 2
		}
	}
	e.csig++
	slot := -1
	for i, s := range e.deltas {
		if s.c > 0 && s.delta == delta {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = 0
		for i, s := range e.deltas {
			if s.c < e.deltas[slot].c {
				slot = i
			}
		}
		e.deltas[slot] = refSlot{delta: delta}
	}
	if e.deltas[slot].c < r.counterMax {
		e.deltas[slot].c++
	}
}

// compareEntry returns how p's Pattern Table entry for sig differs from the
// model's, or nil: its signature counter, its slots' counters, and the
// delta of every live slot. The counters of slots past DeltaSlots must stay
// zero.
func (r *refPatternTable) compareEntry(p *Prefetcher, sig int) error {
	e, re := &p.pt[p.ptIndex(uint16(sig))], r.entry(sig)
	if e.csig() != re.csig {
		return fmt.Errorf("entry %d: csig %d, reference %d", sig%r.entries, e.csig(), re.csig)
	}
	for k := 0; k < maxDeltaSlots; k++ {
		var s refSlot
		if k < len(re.deltas) {
			s = re.deltas[k]
		}
		if e.c(k) != s.c || (s.c > 0 && int(e.deltas[k]) != s.delta) {
			return fmt.Errorf("entry %d slot %d: delta %d count %d, reference %+v", sig%r.entries, k, e.deltas[k], e.c(k), s)
		}
	}
	return nil
}

// lookahead walks the signature path from sig at offset off of trigger's
// region, returning every candidate in proposal order and the first region
// exit, if any.
func (r *refPatternTable) lookahead(trigger mem.Addr, sig, off int, alpha float64) ([]refCand, *refExit) {
	var out []refCand
	var exit *refExit
	bpr := 1 << (r.regionBits - mem.BlockBits)
	regionBase := trigger &^ (1<<r.regionBits - 1)
	path, base := alpha, off
	for depth := 0; depth < r.maxLookahead; depth++ {
		e := r.entry(sig)
		if e.csig == 0 {
			break
		}
		bestC, bestDelta := 0, 0
		for _, s := range e.deltas {
			if s.c == 0 {
				continue
			}
			conf := path * float64(s.c) / float64(e.csig)
			if conf < r.llcT {
				continue
			}
			target := base + s.delta
			cand := regionBase + mem.Addr(target)*mem.BlockSize
			leaves := target < 0 || target >= bpr
			if leaves && exit == nil {
				exit = &refExit{sig: sig, lastOffset: base & (bpr - 1), delta: s.delta}
			}
			if target < 0 || !mem.SamePage(trigger, cand, mem.Page2M) {
				continue
			}
			out = append(out, refCand{
				cand: prefetch.Candidate{Addr: cand, FillL2: conf >= r.fillT},
				meta: Meta{Sig: uint16(sig), Delta: s.delta, Depth: depth, Confidence: conf},
			})
			if s.c > bestC {
				bestC, bestDelta = s.c, s.delta
			}
		}
		if bestC == 0 {
			break
		}
		path *= float64(bestC) / float64(e.csig) * alpha
		if path < r.llcT {
			break
		}
		base += bestDelta
		sig = r.nextSig(sig, bestDelta)
	}
	return out, exit
}

// replayPatternTable drives a Prefetcher's ptUpdate and lookahead and the
// reference model through one script and compares them at every step: the
// trained entry's counters and slots after each update, and every candidate
// (address and FillL2), Meta and recorded region exit of each lookahead.
//
// hdr picks the configuration: bit 0 the region width (12 or 21 bits),
// bits 1-2 DeltaSlots (1..4), bit 3 a 16- or 8-entry Pattern Table, bits 4-7 CounterMax (1..15, 0 meaning 15). The script is
// 4-byte steps (a, b, c, d) over 64 signatures (a>>2): a&1 == 0 trains a
// delta chosen by b%4 — small (int8 c), the region's extreme ±(blocks-1)
// (sign from c), or any 16-bit value (c | d<<8) folded into the region —
// and a&1 == 1 walks from offset (b | c<<8) of the region d selects, at an
// accuracy factor set from c and d. It returns how many candidates the
// lookaheads proposed.
func replayPatternTable(t *testing.T, hdr byte, script []byte) int {
	t.Helper()
	rb := uint(mem.PageBits4K)
	if hdr&1 != 0 {
		rb = mem.PageBits2M
	}
	cfg := DefaultConfig()
	cfg.DeltaSlots = int(hdr>>1&3) + 1
	cfg.PTEntries = 16
	if hdr&8 != 0 {
		cfg.PTEntries = 8
	}
	cfg.CounterMax = int(hdr >> 4)
	if cfg.CounterMax == 0 {
		cfg.CounterMax = maxCounter
	}
	p, ref := New(cfg, rb), newRefPatternTable(cfg, rb)
	bpr := 1 << (rb - mem.BlockBits)
	fold := func(d int) int {
		if d %= bpr; d == 0 {
			d = 1
		}
		return d
	}

	total := 0
	for i := 0; i+4 <= len(script); i += 4 {
		a, b, c, d := script[i], script[i+1], script[i+2], script[i+3]
		sig := int(a >> 2)
		if a&1 == 0 {
			var delta int
			switch b % 4 {
			case 0, 1:
				delta = fold(int(int8(c)))
			case 2:
				delta = bpr - 1
				if c&1 != 0 {
					delta = -delta
				}
			default:
				delta = fold(int(int16(uint16(c) | uint16(d)<<8)))
			}
			p.ptUpdate(uint16(sig), delta)
			ref.update(sig, delta)
			if err := ref.compareEntry(p, sig); err != nil {
				t.Fatalf("step %d: update(%d, %d): %v", i/4, sig, delta, err)
			}
			continue
		}

		off := (int(b) | int(c)<<8) % bpr
		trigger := 0x40000000 + mem.Addr(d)<<rb&(mem.PageSize2M-1) + mem.Addr(off)*mem.BlockSize
		p.fbIssued, p.fbUseful = 64, uint64(c)%65
		if d&0x80 != 0 {
			p.fbIssued = 0 // warm-up prior
		}
		want, exit := ref.lookahead(trigger, sig, off, p.alpha())

		tick := p.tick
		var got []refCand
		p.lookahead(trigger, uint16(sig), off, nil, func(c prefetch.Candidate, m Meta) {
			got = append(got, refCand{c, m})
		})
		if len(got) != len(want) {
			t.Fatalf("step %d: lookahead(%#x, sig %d) proposed %d candidates, reference %d:\n%v\n%v",
				i/4, trigger, sig, len(got), len(want), got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("step %d: lookahead(%#x, sig %d) candidate %d = %+v, reference %+v",
					i/4, trigger, sig, k, got[k], want[k])
			}
		}
		var recorded *ghrEntry
		for k := range p.ghr {
			if p.ghr[k].lru > tick {
				recorded = &p.ghr[k]
			}
		}
		switch {
		case (recorded == nil) != (exit == nil):
			t.Fatalf("step %d: lookahead(%#x, sig %d) recorded exit %+v, reference %+v", i/4, trigger, sig, recorded, exit)
		case exit != nil && (int(recorded.sig) != exit.sig || recorded.lastOffset != exit.lastOffset || recorded.delta != exit.delta):
			t.Fatalf("step %d: lookahead(%#x, sig %d) recorded exit %+v, reference %+v", i/4, trigger, sig, *recorded, *exit)
		}

		var plain []prefetch.Candidate
		p.lookahead(trigger, uint16(sig), off, func(c prefetch.Candidate) { plain = append(plain, c) }, nil)
		for k := range want {
			if k >= len(plain) || plain[k] != want[k].cand {
				t.Fatalf("step %d: plain lookahead(%#x, sig %d) = %v, reference %v", i/4, trigger, sig, plain, want)
			}
		}
		if len(plain) != len(want) {
			t.Fatalf("step %d: plain lookahead(%#x, sig %d) = %v, reference %v", i/4, trigger, sig, plain, want)
		}
		total += len(want)
	}
	return total
}

// TestPatternTableMatchesReference replays random scripts through every
// configuration replayPatternTable's header selects — both region widths,
// 1..4 slots, both table sizes, every saturation point — and checks
// that each region width proposes candidates at all.
func TestPatternTableMatchesReference(t *testing.T) {
	if got := unsafe.Sizeof(ptEntry{}); got != 12 {
		t.Errorf("Pattern Table entry is %d bytes, want 12", got)
	}
	rng := rand.New(rand.NewSource(1))
	cands := map[uint]int{}
	for hdr := 0; hdr < 256; hdr++ {
		for n := 0; n < 4; n++ {
			script := make([]byte, 4*(50+rng.Intn(300)))
			rng.Read(script)
			rb := uint(mem.PageBits4K)
			if hdr&1 != 0 {
				rb = mem.PageBits2M
			}
			cands[rb] += replayPatternTable(t, byte(hdr), script)
		}
	}
	for _, rb := range []uint{mem.PageBits4K, mem.PageBits2M} {
		if cands[rb] == 0 {
			t.Errorf("regionBits %d: no candidates proposed", rb)
		}
	}
	t.Logf("candidates compared: %v", cands)
}

// FuzzSPPPatternTable is replayPatternTable as a fuzz target: the first byte
// is the configuration header, the rest the script.
func FuzzSPPPatternTable(f *testing.F) {
	// 4KB regions, 4 slots, CounterMax 15: a +1 stride trained, then walked.
	f.Add([]byte{0x06, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 60, 0, 0})
	// 2MB regions, 4 slots, CounterMax 3: ±32767 deltas and saturation
	// halving, then walks from both ends of the region.
	f.Add([]byte{0x37, 0, 2, 0, 0, 0, 2, 1, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0,
		1, 0, 0, 0x80, 1, 0xff, 0x7f, 0})
	// 2MB regions, 1 slot, modulo table, CounterMax 1: every update halves.
	f.Add([]byte{0x19, 4, 3, 0xff, 0x7f, 4, 3, 0x01, 0x80, 4, 0, 3, 0, 5, 0x10, 0, 0})
	// 4KB regions, 2 slots: competing deltas evict each other, and the walk
	// leaves the region downwards.
	f.Add([]byte{0x02, 8, 0, 0xfe, 0, 8, 0, 3, 0, 8, 0, 0xfe, 0, 8, 2, 1, 0, 9, 1, 0, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1+4*500 {
			data = data[:1+4*500]
		}
		replayPatternTable(t, data[0], data[1:])
	})
}

// refSignatureTable is a naive model of the Signature Table and the global
// history register around it: per set, a slice of entries holding the
// region, last offset and signature as plain fields, replaced by timestamp
// LRU, and the Pattern Table model the table trains.
type refSignatureTable struct {
	sets, ways int
	regionBits uint
	st         map[int][]*refSTEntry
	ghr        []refGHREntry
	clock      int
	pt         *refPatternTable
	// trained is the signature whose Pattern Table entry the last train
	// updated, -1 if none; n counts train's outcomes.
	trained int
	n       refSTCounts
}

// refSTCounts counts the Signature Table outcomes a script reached.
type refSTCounts struct{ hits, boots, evictions int }

type refSTEntry struct {
	region          mem.Addr
	lastOffset, sig int
	stamp           int
}

type refGHREntry struct {
	valid                  bool
	sig, lastOffset, delta int
	stamp                  int
}

func newRefSignatureTable(cfg Config, regionBits uint) *refSignatureTable {
	return &refSignatureTable{
		sets: cfg.STSets, ways: cfg.STWays, regionBits: regionBits,
		st:  map[int][]*refSTEntry{},
		ghr: make([]refGHREntry, cfg.GHREntries),
		pt:  newRefPatternTable(cfg, regionBits),
	}
}

// set is the Signature Table's set hash, reduced with a modulo.
func (r *refSignatureTable) set(region mem.Addr) int {
	h := uint64(region) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return int(h % uint64(r.sets))
}

func (r *refSignatureTable) bpr() int { return 1 << (r.regionBits - mem.BlockBits) }

// train is the Signature Table's response to a demand access: a hit trains
// the Pattern Table with the delta from the entry's last offset and folds
// it into the signature; a miss takes the first free way of the set, else
// the least recently used one, seeded from a global history entry that
// lands on the access's offset when there is one.
func (r *refSignatureTable) train(addr mem.Addr) (sig, off int, ok bool) {
	region := addr >> r.regionBits
	off = int(addr>>mem.BlockBits) % r.bpr()
	s := r.set(region)
	r.clock++
	r.trained = -1
	for _, e := range r.st[s] {
		if e.region != region {
			continue
		}
		r.n.hits++
		e.stamp = r.clock
		if delta := off - e.lastOffset; delta != 0 {
			r.pt.update(e.sig, delta)
			r.trained = e.sig
			e.sig = r.pt.nextSig(e.sig, delta)
			e.lastOffset = off
		}
		return e.sig, off, true
	}
	for i := range r.ghr {
		g := &r.ghr[i]
		if g.valid && ((g.lastOffset+g.delta)%r.bpr()+r.bpr())%r.bpr() == off {
			g.stamp = r.clock
			sig, ok = r.pt.nextSig(g.sig, g.delta), true
			r.n.boots++
			break
		}
	}
	e := &refSTEntry{region: region, lastOffset: off, sig: sig, stamp: r.clock}
	if len(r.st[s]) < r.ways {
		r.st[s] = append(r.st[s], e)
		return sig, off, ok
	}
	r.n.evictions++
	lru := 0
	for i, x := range r.st[s] {
		if x.stamp < r.st[s][lru].stamp {
			lru = i
		}
	}
	r.st[s][lru] = e
	return sig, off, ok
}

// record enters a region exit into the global history: the first invalid
// entry, else the least recently used one.
func (r *refSignatureTable) record(sig, lastOffset, delta int) {
	r.clock++
	v := -1
	for i, g := range r.ghr {
		if !g.valid {
			v = i
			break
		}
		if v < 0 || g.stamp < r.ghr[v].stamp {
			v = i
		}
	}
	r.ghr[v] = refGHREntry{valid: true, sig: sig, lastOffset: lastOffset, delta: delta, stamp: r.clock}
}

// compare returns how p's Signature Table differs from the model, or nil.
// Set by set, the way at recency rank k must hold the model's k-th most
// recent entry, and the ranks past the model's entries must be ways never
// filled.
func (r *refSignatureTable) compare(p *Prefetcher) error {
	for s := 0; s < r.sets; s++ {
		want := append([]*refSTEntry(nil), r.st[s]...)
		sort.Slice(want, func(i, j int) bool { return want[i].stamp > want[j].stamp })
		for k := 0; k < r.ways; k++ {
			w := recency.Way(p.stOrder[s], k)
			word := p.stWays[s*r.ways+w]
			if k >= len(want) {
				if word != 0 {
					return fmt.Errorf("set %d rank %d (way %d) = %#x, reference: never filled", s, k, w, word)
				}
				continue
			}
			e := want[k]
			if word != stWord(e.region, e.lastOffset, uint16(e.sig)) {
				return fmt.Errorf("set %d rank %d (way %d) = %#x (region %#x offset %d sig %#x), reference region %#x offset %d sig %#x",
					s, k, w, word, word>>stKeyShift-1, word>>stOffShift&stOffMask, uint16(word), e.region, e.lastOffset, e.sig)
			}
		}
	}
	return nil
}

// replaySignatureTable drives a Prefetcher's train and GHR recording and
// the reference model through one script and compares them at every step:
// train's signature, offset and bootstrap result, the whole Signature Table
// in recency order, and the Pattern Table entry a hit trained.
//
// hdr picks the configuration: bit 0 the region width (12 or 21 bits),
// bits 1-2 STWays (1..4), bits 3-4 STSets (1, 2, 4 or 8) and bits 5-7 how
// many regions beyond the table's capacity the script's pool holds, so
// that sets collide and evict. The pool always holds region 0 and the
// largest region a way packs. The script is 3-byte steps (a, b, c): a&3 ==
// 3 records a global history exit with signature a>>2, last offset b and
// delta int8(c); otherwise the step is a demand access to pool region a>>2
// at offset b, or at offset b | c<<8 when c's top bit is set, folded into
// the region. It returns the outcomes the accesses reached.
func replaySignatureTable(t *testing.T, hdr byte, script []byte) refSTCounts {
	t.Helper()
	rb := uint(mem.PageBits4K)
	if hdr&1 != 0 {
		rb = mem.PageBits2M
	}
	cfg := DefaultConfig()
	cfg.STWays = int(hdr>>1&3) + 1
	cfg.STSets = 1 << (hdr >> 3 & 3)
	p, ref := New(cfg, rb), newRefSignatureTable(cfg, rb)
	bpr := ref.bpr()

	pool := []mem.Addr{0, stRegionLimit - 1}
	for k := 1; len(pool) < cfg.STSets*cfg.STWays+2+int(hdr>>5); k++ {
		pool = append(pool, mem.Addr(k)*0x9e37+mem.Addr(k&1)<<30)
	}

	for i := 0; i+3 <= len(script); i += 3 {
		a, b, c := script[i], script[i+1], script[i+2]
		if a&3 == 3 {
			sig, last, delta := int(a>>2), int(b)%bpr, int(int8(c))
			p.ghrRecord(uint16(sig), last, delta)
			ref.record(sig, last, delta)
			continue
		}
		off := int(b)
		if c&0x80 != 0 {
			off |= int(c) << 8
		}
		off %= bpr
		region := pool[int(a>>2)%len(pool)]
		addr := region<<rb + mem.Addr(off)*mem.BlockSize
		wantSig, wantOff, wantOK := ref.train(addr)
		sig, gotOff, ok := p.train(ctxAt(addr))
		if int(sig) != wantSig || gotOff != wantOff || ok != wantOK {
			t.Fatalf("step %d: train(%#x) = sig %#x offset %d ok %v, reference sig %#x offset %d ok %v",
				i/3, addr, sig, gotOff, ok, wantSig, wantOff, wantOK)
		}
		if err := ref.compare(p); err != nil {
			t.Fatalf("step %d: train(%#x): %v", i/3, addr, err)
		}
		if ref.trained >= 0 {
			if err := ref.pt.compareEntry(p, ref.trained); err != nil {
				t.Fatalf("step %d: train(%#x): %v", i/3, addr, err)
			}
		}
	}
	return ref.n
}

// TestSignatureTableMatchesReference replays random scripts through every
// configuration replaySignatureTable's header selects — both region widths,
// 1..4 ways, 1..8 sets, pools up to seven regions past capacity — and checks
// that the scripts reach table hits, global history bootstraps and
// evictions at each region width.
func TestSignatureTableMatchesReference(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	if got, want := unsafe.Sizeof(p.stWays[0])*uintptr(len(p.stWays)+len(p.stOrder)), uintptr(8*(64*4+64)); got != want {
		t.Errorf("Signature Table is %d bytes, want %d: one word per way and one recency word per set", got, want)
	}
	if unsafe.Pointer(&p.stOrder[0]) != unsafe.Add(unsafe.Pointer(&p.stWays[0]), 8*len(p.stWays)) {
		t.Error("Signature Table recency words are not in the way words' allocation")
	}
	rng := rand.New(rand.NewSource(1))
	reached := map[uint]refSTCounts{}
	for hdr := 0; hdr < 256; hdr++ {
		for n := 0; n < 2; n++ {
			script := make([]byte, 3*(50+rng.Intn(300)))
			rng.Read(script)
			rb := uint(mem.PageBits4K)
			if hdr&1 != 0 {
				rb = mem.PageBits2M
			}
			c, sum := replaySignatureTable(t, byte(hdr), script), reached[rb]
			reached[rb] = refSTCounts{sum.hits + c.hits, sum.boots + c.boots, sum.evictions + c.evictions}
		}
	}
	for rb, c := range reached {
		if c.hits == 0 || c.boots == 0 || c.evictions == 0 {
			t.Errorf("regionBits %d: scripts reached %+v, want every outcome", rb, c)
		}
	}
	t.Logf("outcomes compared: %+v", reached)
}

// FuzzSPPSignatureTable is replaySignatureTable as a fuzz target: the first
// byte is the configuration header, the rest the script. Its seeds are in
// testdata/fuzz/FuzzSPPSignatureTable.
func FuzzSPPSignatureTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1+3*500 {
			data = data[:1+3*500]
		}
		replaySignatureTable(t, data[0], data[1:])
	})
}
