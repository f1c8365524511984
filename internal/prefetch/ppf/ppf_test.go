package ppf

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

func ctxAt(addr mem.Addr) prefetch.Context {
	return prefetch.Context{Addr: mem.BlockAlign(addr), PC: 0x400123, Type: mem.Load, PageSize: mem.Page4K}
}

func TestProposesOnTrainedPattern(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	var cands []prefetch.Candidate
	for i := 0; i < 16; i++ {
		cands = nil
		p.Operate(ctxAt(base+mem.Addr(i)*mem.BlockSize), func(c prefetch.Candidate) { cands = append(cands, c) })
	}
	if len(cands) == 0 {
		t.Fatal("PPF proposed nothing on a perfect stride")
	}
}

func TestNegativeTrainingSuppresses(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)

	countIssued := func() int {
		n := 0
		for i := 0; i < 32; i++ {
			p.Operate(ctxAt(base+mem.Addr(i)*mem.BlockSize), func(c prefetch.Candidate) {
				n++
				// Report every issued prefetch as useless.
				p.PrefetchUnused(c.Addr)
				p.PrefetchUnused(c.Addr) // idempotent on invalid record
			})
		}
		return n
	}
	first := countIssued()
	var last int
	for round := 0; round < 20; round++ {
		last = countIssued()
	}
	if first == 0 {
		t.Fatal("no prefetches issued at all")
	}
	if last >= first {
		t.Errorf("negative feedback did not reduce issue rate: first=%d last=%d", first, last)
	}
}

func TestPositiveTrainingPromotes(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	// Drive with positive feedback; the L2 share of issued prefetches should
	// not collapse.
	l2, total := 0, 0
	for i := 0; i < 200; i++ {
		p.Operate(ctxAt(base+mem.Addr(i)*mem.BlockSize), func(c prefetch.Candidate) {
			total++
			if c.FillL2 {
				l2++
			}
			p.PrefetchUseful(c.Addr)
		})
	}
	if total == 0 {
		t.Fatal("nothing issued")
	}
	if l2 == 0 {
		t.Error("no candidate promoted to L2 despite positive feedback")
	}
}

func TestRejectThenDemandMissTrainsUp(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	// Force all weights deeply negative so everything is rejected.
	for i := range p.w {
		p.w[i] = -8
	}
	base := mem.Addr(0x40000000)
	rejectedSome := false
	for i := 0; i < 16; i++ {
		p.Operate(ctxAt(base+mem.Addr(i)*mem.BlockSize), func(prefetch.Candidate) {
			t.Fatal("candidate issued despite negative weights")
		})
	}
	for _, r := range p.rjt {
		if r.tag&recValid != 0 {
			rejectedSome = true
			// A demand miss on the rejected block must raise its weights.
			before := p.sum(r.features())
			p.DemandMiss(r.tag &^ recValid)
			after := p.sum(r.features())
			if after <= before {
				t.Errorf("DemandMiss did not train up: %d -> %d", before, after)
			}
			break
		}
	}
	if !rejectedSome {
		t.Fatal("no rejections recorded")
	}
}

func TestWeightsSaturate(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	var idx [numFeatures]int // all zeros
	for i := 0; i < 1000; i++ {
		p.adjust(idx, true)
	}
	for f := 0; f < numFeatures; f++ {
		if w := p.w[f*p.cfg.TableEntries]; int(w) > p.cfg.WeightMax {
			t.Errorf("weight exceeded max: %d", w)
		}
	}
	for i := 0; i < 2000; i++ {
		p.adjust(idx, false)
	}
	for f := 0; f < numFeatures; f++ {
		if w := p.w[f*p.cfg.TableEntries]; int(w) < -p.cfg.WeightMax-1 {
			t.Errorf("weight exceeded min: %d", w)
		}
	}
}

func TestTrainOnlyDelegatesToSPP(t *testing.T) {
	p := New(DefaultConfig(), mem.PageBits4K)
	base := mem.Addr(0x40000000)
	for i := 0; i < 12; i++ {
		p.Train(ctxAt(base + mem.Addr(i)*mem.BlockSize))
	}
	var n int
	p.Operate(ctxAt(base+12*mem.BlockSize), func(prefetch.Candidate) { n++ })
	if n == 0 {
		t.Error("Train-only did not build proposer state")
	}
}

func TestScale(t *testing.T) {
	c := DefaultConfig().Scale(2)
	if c.TableEntries != 2048 || c.RecordEntries != 2048 || c.SPP.PTEntries != 1024 {
		t.Errorf("Scale(2) = %+v", c)
	}
}

// TestNewRejectsNonPowerOfTwoTables: the feature and record tables index
// with a mask, which over any other size would reach only part of the table,
// so New refuses such sizes (and SPP's, through spp.New).
func TestNewRejectsNonPowerOfTwoTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"TableEntries 1000", func(c *Config) { c.TableEntries = 1000 }},
		{"TableEntries 0", func(c *Config) { c.TableEntries = 0 }},
		{"RecordEntries 1536", func(c *Config) { c.RecordEntries = 1536 }},
		{"SPP.PTEntries 384", func(c *Config) { c.SPP.PTEntries = 384 }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New accepted the size", tc.name)
				}
			}()
			New(cfg, mem.PageBits4K)
		}()
	}
}

// TestTableEntriesBound: a record stores each feature index in 16 bits, so
// New rejects weight tables past 1<<16 entries, and a filter at the bound
// runs.
func TestTableEntriesBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TableEntries = maxTableEntries << 1
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("New accepted TableEntries = %d", cfg.TableEntries)
			}
		}()
		New(cfg, mem.PageBits4K)
	}()
	cfg.TableEntries = maxTableEntries
	p := New(cfg, mem.PageBits4K)
	n := 0
	for i := 0; i < 32; i++ {
		p.Operate(ctxAt(0x40000000+mem.Addr(i)*mem.BlockSize), func(c prefetch.Candidate) {
			n++
			p.PrefetchUseful(c.Addr)
		})
	}
	if n == 0 {
		t.Errorf("TableEntries = %d: nothing issued on a +1 stride", maxTableEntries)
	}
}
