package ppf

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/spp"
)

// refPPF is a naive model of the perceptron filter: plain-int weight tables,
// and map-backed prefetch and reject tables whose records hold the block,
// a validity flag and the feature indices as separate fields.
type refPPF struct {
	cfg      Config
	w        []int
	pft, rjt map[int]*refRecord
}

type refRecord struct {
	block mem.Addr
	valid bool
	idx   []int
}

func newRefPPF(cfg Config) *refPPF {
	return &refPPF{
		cfg: cfg,
		w:   make([]int, numFeatures*cfg.TableEntries),
		pft: map[int]*refRecord{},
		rjt: map[int]*refRecord{},
	}
}

// hash is the filter's multiplicative hash, reduced with a modulo.
func refHash(x uint64, entries int) int {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	return int(x % uint64(entries))
}

func (r *refPPF) slot(block mem.Addr) int {
	return refHash(uint64(block>>mem.BlockBits), r.cfg.RecordEntries)
}

// features computes the seven feature indices: PC, PC with lookahead depth,
// block offset in the 4KB page, 4KB page number, signature, confidence
// bucket and delta.
func (r *refPPF) features(pc, cand mem.Addr, m spp.Meta) []int {
	n := r.cfg.TableEntries
	return []int{
		refHash(uint64(pc), n),
		refHash(uint64(pc)<<4^uint64(m.Depth), n),
		refHash(uint64(cand>>mem.BlockBits&63), n),
		refHash(uint64(cand>>mem.PageBits4K)&0xffff, n),
		refHash(uint64(m.Sig), n),
		refHash(uint64(int(m.Confidence*8)), n),
		refHash(uint64(int64(m.Delta))+1<<20, n),
	}
}

func (r *refPPF) sum(idx []int) int {
	s := 0
	for f, j := range idx {
		s += r.w[f*r.cfg.TableEntries+j]
	}
	return s
}

func (r *refPPF) adjust(idx []int, up bool) {
	for f, j := range idx {
		w := &r.w[f*r.cfg.TableEntries+j]
		if up && *w < r.cfg.WeightMax {
			*w++
		} else if !up && *w > -r.cfg.WeightMax-1 {
			*w--
		}
	}
}

// classify returns what the filter issues for a candidate, if anything,
// and records the decision in the prefetch or reject table.
func (r *refPPF) classify(pc, cand mem.Addr, m spp.Meta) []prefetch.Candidate {
	idx := r.features(pc, cand, m)
	s := r.sum(idx)
	rec := &refRecord{block: cand &^ (mem.BlockSize - 1), valid: true, idx: idx}
	switch {
	case s >= r.cfg.ThresholdHi:
		r.pft[r.slot(cand)] = rec
		return []prefetch.Candidate{{Addr: cand, FillL2: true}}
	case s >= r.cfg.ThresholdLo:
		r.pft[r.slot(cand)] = rec
		return []prefetch.Candidate{{Addr: cand}}
	}
	r.rjt[r.slot(cand)] = rec
	return nil
}

// feedback applies an outcome to the record of block in table: a live
// record of that block trains its weights up (or down) while its sum is
// inside the margin, and is spent. It reports whether a record matched.
func (r *refPPF) feedback(table map[int]*refRecord, block mem.Addr, up bool) bool {
	rec := table[r.slot(block)]
	if rec == nil || !rec.valid || rec.block != block&^(mem.BlockSize-1) {
		return false
	}
	if s := r.sum(rec.idx); up && s < r.cfg.TrainMargin || !up && s > -r.cfg.TrainMargin {
		r.adjust(rec.idx, up)
	}
	rec.valid = false
	return true
}

// compare returns how p's weights and record tables differ from the model,
// or nil.
func (r *refPPF) compare(p *Prefetcher) error {
	for i, w := range r.w {
		if int(p.w[i]) != w {
			return fmt.Errorf("weight %d of feature %d = %d, reference %d", i%r.cfg.TableEntries, i/r.cfg.TableEntries, p.w[i], w)
		}
	}
	for _, tab := range []struct {
		name string
		got  []record
		want map[int]*refRecord
	}{{"prefetch", p.pft, r.pft}, {"reject", p.rjt, r.rjt}} {
		for i, got := range tab.got {
			want := tab.want[i]
			if want == nil || !want.valid {
				if got.tag != 0 {
					return fmt.Errorf("%s record %d = %+v, reference empty", tab.name, i, got)
				}
				continue
			}
			ok := got.tag == want.block|recValid
			for f, j := range want.idx {
				ok = ok && int(got.idx[f]) == j
			}
			if !ok {
				return fmt.Errorf("%s record %d = %+v, reference block %#x features %v", tab.name, i, got, want.block, want.idx)
			}
		}
	}
	return nil
}

// replayRecords drives a Prefetcher's classify and feedback and the
// reference model through one script and compares them after every step:
// the candidates issued, whether each feedback found its record, every
// weight and every record.
//
// hdr picks the configuration: bits 0-1 TableEntries (16, 64, 512 or
// 1024, the last two past what a byte indexes), bits 2-3 RecordEntries (1,
// 2, 8 or 64), bit 4 WeightMax 3 instead of 31, bit 5 TrainMargin 4
// instead of 20 and bits 6-7 the thresholds (ThresholdHi, ThresholdLo):
// (2, -6), (0, -2), (5, 0) or (-3, -12). The script is 4-byte steps (a,
// b, c, d) over a pool of 24 blocks in three 4KB pages: a%4 == 0
// classifies pool block b from PC c>>4 with lookahead signature b^d, delta
// int8(c), depth d%12 and confidence d/255; 1, 2 and 3 report
// PrefetchUseful, PrefetchUnused and DemandMiss for an address within pool
// block b. It returns how many feedback steps found their record.
func replayRecords(t *testing.T, hdr byte, script []byte) int {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TableEntries = []int{16, 64, 512, 1024}[hdr&3]
	cfg.RecordEntries = []int{1, 2, 8, 64}[hdr>>2&3]
	if hdr&0x10 != 0 {
		cfg.WeightMax = 3
	}
	if hdr&0x20 != 0 {
		cfg.TrainMargin = 4
	}
	th := [4][2]int{{2, -6}, {0, -2}, {5, 0}, {-3, -12}}[hdr>>6]
	cfg.ThresholdHi, cfg.ThresholdLo = th[0], th[1]
	p, ref := New(cfg, mem.PageBits4K), newRefPPF(cfg)

	block := func(b byte) mem.Addr {
		k := mem.Addr(b) % 24
		return mem.Addr(0x40000000) + k/8*mem.PageSize4K + (k%8*7)%64*mem.BlockSize
	}
	hits := 0
	for i := 0; i+4 <= len(script); i += 4 {
		a, b, c, d := script[i], script[i+1], script[i+2], script[i+3]
		addr := block(b)
		step := fmt.Sprintf("step %d", i/4)
		switch a % 4 {
		case 0:
			pc := mem.Addr(0x400000 + int(c>>4)*0x40)
			m := spp.Meta{Sig: uint16(b ^ d), Delta: int(int8(c)), Depth: int(d % 12), Confidence: float64(d) / 255}
			want := ref.classify(pc, addr, m)
			var got []prefetch.Candidate
			p.opCtx = prefetch.Context{Addr: addr, PC: pc, Type: mem.Load, PageSize: mem.Page4K}
			p.opIssue = func(c prefetch.Candidate) { got = append(got, c) }
			p.classify(prefetch.Candidate{Addr: addr}, m)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: classify(%#x, %+v) issued %v, reference %v", step, addr, m, got, want)
			}
			step += fmt.Sprintf(": classify(%#x, %+v)", addr, m)
		default:
			addr += mem.Addr(d) % mem.BlockSize
			var gotHit, wantHit bool
			switch a % 4 {
			case 1:
				before := p.pft[recIndex(addr, cfg.RecordEntries)]
				p.PrefetchUseful(addr)
				gotHit, wantHit = before != p.pft[recIndex(addr, cfg.RecordEntries)], ref.feedback(ref.pft, addr, true)
				step += fmt.Sprintf(": PrefetchUseful(%#x)", addr)
			case 2:
				before := p.pft[recIndex(addr, cfg.RecordEntries)]
				p.PrefetchUnused(addr)
				gotHit, wantHit = before != p.pft[recIndex(addr, cfg.RecordEntries)], ref.feedback(ref.pft, addr, false)
				step += fmt.Sprintf(": PrefetchUnused(%#x)", addr)
			default:
				before := p.rjt[recIndex(addr, cfg.RecordEntries)]
				p.DemandMiss(addr)
				gotHit, wantHit = before != p.rjt[recIndex(addr, cfg.RecordEntries)], ref.feedback(ref.rjt, addr, true)
				step += fmt.Sprintf(": DemandMiss(%#x)", addr)
			}
			if gotHit != wantHit {
				t.Fatalf("%s: record hit %v, reference %v", step, gotHit, wantHit)
			}
			if wantHit {
				hits++
			}
		}
		if err := ref.compare(p); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	return hits
}

// TestRecordsMatchReference replays random scripts through every
// configuration replayRecords's header selects and checks that feedback
// finds live records at all.
func TestRecordsMatchReference(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 24 {
		t.Errorf("record is %d bytes, want 24", got)
	}
	rng := rand.New(rand.NewSource(1))
	hits := 0
	for hdr := 0; hdr < 256; hdr++ {
		script := make([]byte, 4*(50+rng.Intn(200)))
		rng.Read(script)
		hits += replayRecords(t, byte(hdr), script)
	}
	if hits == 0 {
		t.Error("no feedback step found its record")
	}
	t.Logf("record hits compared: %d", hits)
}

// FuzzPPFRecords is replayRecords as a fuzz target: the first byte is the
// configuration header, the rest the script. Its seeds are in
// testdata/fuzz/FuzzPPFRecords.
func FuzzPPFRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1+4*500 {
			data = data[:1+4*500]
		}
		replayRecords(t, data[0], data[1:])
	})
}
