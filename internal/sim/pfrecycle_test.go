package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/prefetch/ipcp"
)

// pfCase is one prefetcher the recycle scripts run: a base of the factory
// table at one indexing granularity, or the L1 IPCP (base "ipcp").
type pfCase struct {
	base       string
	regionBits uint
}

// pfCases lists every factory base at 4KB and 2MB indexing, then the IPCP.
var pfCases = func() []pfCase {
	var cs []pfCase
	for _, base := range append(ExtendedBaseNames(), "nextline") {
		cs = append(cs, pfCase{base, mem.PageBits4K}, pfCase{base, mem.PageBits2M})
	}
	return append(cs, pfCase{base: "ipcp"})
}()

// pfEvent is one proposed candidate and the script step that proposed it.
type pfEvent struct {
	step  int
	cand  prefetch.Candidate
	class ipcp.Class // the L1 IPCP's classification; ClassNone otherwise
}

// pfRig is one prefetcher instance under a script, with the candidates it
// proposed.
type pfRig struct {
	p     prefetch.Prefetcher // nil for the IPCP
	l1    *ipcp.Prefetcher
	buf   []ipcp.Candidate
	log   []pfEvent
	step  int
	issue func(prefetch.Candidate)
	// cursor is the block the script's accesses are at, within an 8MB
	// window that spans four 2MB pages; delta is its last move.
	cursor, delta int
	at            mem.Cycle
}

// newPFRig builds an instance of c through the same constructors a
// simulation uses.
func newPFRig(t *testing.T, c pfCase) *pfRig {
	t.Helper()
	r := &pfRig{}
	r.issue = func(cand prefetch.Candidate) { r.log = append(r.log, pfEvent{step: r.step, cand: cand}) }
	if c.base == "ipcp" {
		r.l1 = ipcp.New(ipcp.DefaultConfig())
		return r
	}
	f, err := factoryFor(c.base, core.PSA)
	if err != nil {
		t.Fatal(err)
	}
	r.p = f(c.regionBits)
	return r
}

// pfWindowBase is the physical base of the script's window; the virtual
// window lies at another 2MB-aligned base.
const (
	pfWindowBase  = mem.Addr(0x4000_0000)
	pfVirtualBase = mem.Addr(0x7f00_0000_0000)
	pfWindow      = 4 << (mem.PageBits2M - mem.BlockBits) // blocks
)

// context returns the access context of a step: op bit 3 makes it a store,
// bit 4 a hit and bit 7 the 2MB page size; bits 5 and 6 both set move it to
// a second PC, so most accesses share one and per-PC strides form.
func (r *pfRig) context(op byte, typ mem.AccessType) prefetch.Context {
	off := mem.Addr(r.cursor) << mem.BlockBits
	if typ == mem.Load && op&8 != 0 {
		typ = mem.Store
	}
	size := mem.Page4K
	if op&0x80 != 0 {
		size = mem.Page2M
	}
	pc := mem.Addr(0x400000)
	if op&0x60 == 0x60 {
		pc += 0x40
	}
	return prefetch.Context{
		Addr:     pfWindowBase + off,
		VAddr:    pfVirtualBase + off,
		PC:       pc,
		Hit:      op&16 != 0,
		Type:     typ,
		PageSize: size,
		At:       r.at,
	}
}

// pfSmallDeltas are the short strides a script move picks from.
var pfSmallDeltas = [8]int{1, 1, 1, 2, 2, 3, -1, 4}

// move advances the cursor by arg: a jump to one of eight places in the
// window (arg 0xf8 and above), the last delta again (bit 7), a new delta of
// -32..31 blocks (bit 6) or a new short one.
func (r *pfRig) move(arg byte) {
	switch {
	case arg >= 0xf8:
		r.cursor = int(arg&7) * pfWindow / 8
	case arg&0x80 != 0:
		r.cursor += r.delta
	case arg&0x40 != 0:
		r.delta = int(arg&0x3f) - 32
		r.cursor += r.delta
	default:
		r.delta = pfSmallDeltas[arg&7]
		r.cursor += r.delta
	}
	r.cursor = (r.cursor%pfWindow + pfWindow) % pfWindow
}

// fedBack returns the block a feedback step names: one of the last 16
// candidates proposed, else the cursor's block.
func (r *pfRig) fedBack(arg byte) mem.Addr {
	if n := min(len(r.log), 16); n > 0 {
		return r.log[len(r.log)-1-int(arg)%n].cand.Addr
	}
	return pfWindowBase + mem.Addr(r.cursor)<<mem.BlockBits
}

// operate runs one access through the prefetcher.
func (r *pfRig) operate(ctx prefetch.Context) {
	if r.l1 == nil {
		r.p.Operate(ctx, r.issue)
		return
	}
	r.buf = r.l1.Operate(ctx.PC, ctx.VAddr, r.buf[:0])
	for _, c := range r.buf {
		r.log = append(r.log, pfEvent{step: r.step, cand: prefetch.Candidate{Addr: c.VAddr, Virtual: true}, class: c.Class})
	}
}

// run replays a script, two bytes a step: the operation, then its argument.
// Operation bits 0-2 choose a demand Operate (0-2), a Train (3), an Operate
// on a prefetch access (4), or PrefetchUseful, PrefetchUnused or DemandMiss
// feedback (5-7). The IPCP, which has neither Train nor feedback, operates
// on every step.
func (r *pfRig) run(script []byte) {
	fb, _ := r.p.(prefetch.FeedbackReceiver)
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		r.step++
		r.at += mem.Cycle(arg)
		kind := op & 7
		switch {
		case kind < 5 || r.l1 != nil:
			r.move(arg)
			typ := mem.Load
			if kind == 4 {
				typ = mem.Prefetch
			}
			ctx := r.context(op, typ)
			if kind == 3 && r.p != nil {
				r.p.Train(ctx)
			} else {
				r.operate(ctx)
			}
		case fb == nil:
		case kind == 5:
			fb.PrefetchUseful(r.fedBack(arg))
		case kind == 6:
			fb.PrefetchUnused(r.fedBack(arg))
		default:
			fb.DemandMiss(r.fedBack(arg))
		}
	}
}

// release releases the instance, twice: the second must be a no-op.
func (r *pfRig) release() {
	for i := 0; i < 2; i++ {
		if r.l1 != nil {
			r.l1.Release()
		} else {
			r.p.Release()
		}
	}
}

// instance returns the prefetcher under the rig.
func (r *pfRig) instance() any {
	if r.l1 != nil {
		return r.l1
	}
	return r.p
}

// slabsOf returns the tables a prefetcher instance owns — its slab, and its
// proposer's for PPF — read from the unexported fields by reflection, as
// pointers that outlive the instance's Release.
func slabsOf(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	if f := v.FieldByName("slab"); f.IsValid() && !f.IsNil() {
		out = append(out, reflect.NewAt(f.Type().Elem(), f.UnsafePointer()))
	}
	if f := v.FieldByName("spp"); f.IsValid() {
		out = append(out, slabsOf(f.Elem())...)
	}
	return out
}

// runPFRecycleScript checks that a prefetcher's recycled tables are exact.
// data[0] picks the case; data[1] splits the rest into a first and a second
// script. The first runs on an instance that is then released: its tables
// must print as a fresh instance's do, and the next instance of the case
// draws them from the pool. The second script runs on it and on the fresh
// instance, and every candidate the two propose, in order and by step, must
// agree. Both are then released, after which Operate must panic. It returns
// how many candidates the second script drew.
func runPFRecycleScript(t *testing.T, data []byte) int {
	t.Helper()
	if len(data) < 2 {
		return 0
	}
	c := pfCases[int(data[0])%len(pfCases)]
	script := data[2:]
	split := int(data[1]) * len(script) / 256
	first, second := script[:split], script[split:]

	// Two collections empty the pools of what earlier runs released, so
	// fresh and dirty allocate their tables.
	runtime.GC()
	runtime.GC()
	fresh := newPFRig(t, c)
	dirty := newPFRig(t, c)
	want := slabsOf(reflect.ValueOf(fresh.instance()).Elem())
	used := slabsOf(reflect.ValueOf(dirty.instance()).Elem())
	if len(used) != len(want) || (len(used) == 0) != (c.base == "nextline") {
		t.Fatalf("%+v: an instance owns %d slabs, another %d", c, len(used), len(want))
	}
	dirty.run(first)
	dirty.release()
	for i := range used {
		if got, want := fmt.Sprint(used[i]), fmt.Sprint(want[i]); got != want {
			t.Fatalf("%+v: tables released after %d steps differ from a fresh instance's:\n got %.2000s\nwant %.2000s",
				c, len(first)/2, got, want)
		}
	}
	recycled := newPFRig(t, c)
	// sync.Pool keeps what it is given unless two collections intervene,
	// except under the race detector, which drops Puts at random.
	for i, s := range slabsOf(reflect.ValueOf(recycled.instance()).Elem()) {
		if !raceEnabled && s.Pointer() != used[i].Pointer() {
			t.Fatalf("%+v: the instance built after a release did not get the released tables", c)
		}
	}

	fresh.run(second)
	recycled.run(second)
	if !slices.Equal(recycled.log, fresh.log) {
		t.Fatalf("%+v: after a %d-step run on the tables, the recycled instance proposed\n%v\na fresh one\n%v",
			c, len(first)/2, recycled.log, fresh.log)
	}

	fresh.release()
	recycled.release()
	if c.base != "nextline" { // next-line has no tables to lose
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%+v: Operate after Release did not panic", c)
				}
			}()
			recycled.operate(recycled.context(0, mem.Load))
		}()
	}
	return len(fresh.log)
}

// FuzzPrefetcherRecycle is runPFRecycleScript as a fuzz target. The
// checked-in corpus (testdata/fuzz/FuzzPrefetcherRecycle) holds one script
// per case.
func FuzzPrefetcherRecycle(f *testing.F) {
	f.Add([]byte{0, 128, 0, 1, 0, 0x41, 0, 0x41, 3, 0x41, 5, 0, 0, 0x41, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		runPFRecycleScript(t, data)
	})
}

// TestPrefetcherRecycleScripts runs random scripts over every case. Half of
// each script's moves repeat the last delta, so the prefetchers learn
// patterns and propose.
func TestPrefetcherRecycleScripts(t *testing.T) {
	rng := uint64(1)
	next := func() byte {
		rng = rng*6364136223846793005 + 1442695040888963407
		return byte(rng >> 56)
	}
	proposed := make([]int, len(pfCases))
	for sel := range pfCases {
		for n := 0; n < 8; n++ {
			data := make([]byte, 2+2*(100+int(next())))
			for i := range data {
				data[i] = next()
			}
			data[0] = byte(sel)
			proposed[sel] += runPFRecycleScript(t, data)
		}
	}
	for sel, n := range proposed {
		t.Logf("%+v: %d candidates", pfCases[sel], n)
		if n == 0 {
			t.Errorf("%+v proposed nothing over its scripts: they exercise no prediction", pfCases[sel])
		}
	}
}
