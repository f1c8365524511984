package trace

import (
	"testing"

	"repro/internal/mem"
)

func take(r Reader, n int) []Access {
	out := make([]Access, 0, n)
	var a Access
	for i := 0; i < n && r.Next(&a); i++ {
		out = append(out, a)
	}
	return out
}

func TestCatalogueCounts(t *testing.T) {
	if got := len(Intensive()); got != 80 {
		t.Errorf("intensive workloads = %d, want 80 (the paper's set)", got)
	}
	if got := len(All()); got <= 80 {
		t.Errorf("All() = %d, want > 80 (non-intensive extras)", got)
	}
}

func TestCatalogueNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.New == nil {
			t.Errorf("workload %q has no generator", w.Name)
		}
		if w.THP == nil {
			t.Errorf("workload %q has no THP policy", w.Name)
		}
	}
}

func TestSuiteGrouping(t *testing.T) {
	suites := Suites()
	want := map[string]bool{
		SuiteSPEC06: true, SuiteSPEC17: true, SuiteGAP: true,
		SuiteCloud: true, SuiteML: true, SuiteQMM: true,
	}
	if len(suites) != len(want) {
		t.Errorf("suites = %v", suites)
	}
	for _, s := range suites {
		if !want[s] {
			t.Errorf("unexpected suite %q", s)
		}
		if len(BySuite(s)) == 0 {
			t.Errorf("suite %q empty", s)
		}
	}
	if got := len(BySuite(SuiteQMM)); got != 39 {
		t.Errorf("QMM workloads = %d, want 39", got)
	}
}

// TestByName: ByName resolves every workload of All to itself, allocates
// nothing for an intensive or a non-intensive name (it runs once per
// simulation a server resolves), and errors on an unknown name.
func TestByName(t *testing.T) {
	for _, want := range All() {
		w, err := ByName(want.Name)
		if err != nil || w.Name != want.Name || w.Suite != want.Suite || w.Intensive != want.Intensive {
			t.Errorf("ByName(%s) = %s/%s intensive=%v, %v", want.Name, w.Name, w.Suite, w.Intensive, err)
		}
	}
	for _, name := range []string{"milc", "perlbench"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ByName(name); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ByName(%s) allocates %.1f objects, want 0", name, n)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName of unknown workload did not error")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, w := range All() {
		a := take(w.New(42), 200)
		b := take(w.New(42), 200)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: access %d differs between identical seeds", w.Name, i)
				break
			}
		}
	}
}

func TestGeneratorsProduceAlignedSaneAccesses(t *testing.T) {
	for _, w := range All() {
		accs := take(w.New(7), 2000)
		if len(accs) != 2000 {
			t.Errorf("%s: generator ended early (%d)", w.Name, len(accs))
			continue
		}
		for i, a := range accs {
			if a.Gap < 0 || a.Gap > 64 {
				t.Errorf("%s: access %d has gap %d", w.Name, i, a.Gap)
				break
			}
			if a.PC == 0 {
				t.Errorf("%s: access %d has zero PC", w.Name, i)
				break
			}
		}
	}
}

func TestStreamsWrapAtFootprint(t *testing.T) {
	r := NewStreams(1, 0, StreamSpec{Stride: 64, Footprint: 4 * mem.BlockSize})
	var seen []mem.Addr
	var a Access
	for i := 0; i < 8; i++ {
		r.Next(&a)
		seen = append(seen, a.VAddr)
	}
	if seen[0] != seen[4] {
		t.Errorf("stream did not wrap after footprint: %v", seen)
	}
}

func TestNegativeStrideStream(t *testing.T) {
	r := NewStreams(1, 0, StreamSpec{Stride: -64, Footprint: 1 << 20})
	var a Access
	r.Next(&a)
	first := a.VAddr
	r.Next(&a)
	if a.VAddr != first-64 {
		t.Errorf("negative stride: %#x then %#x", first, a.VAddr)
	}
}

func TestChaseVisitsAllNodes(t *testing.T) {
	const nodes = 64
	r := NewChase(9, 0, nodes, 64, 0)
	seen := map[mem.Addr]bool{}
	var a Access
	for i := 0; i < nodes; i++ {
		r.Next(&a)
		seen[a.VAddr] = true
	}
	// Sattolo's algorithm guarantees a single cycle through all nodes.
	if len(seen) != nodes {
		t.Errorf("chase visited %d distinct nodes in %d steps, want %d", len(seen), nodes, nodes)
	}
}

func TestRoadGraphPhases(t *testing.T) {
	r := NewRoadGraph(3, 1, 1000, 8, 50)
	accs := take(r, 300)
	var offs, vals, writes int
	for _, a := range accs {
		switch a.PC {
		case 0x440000:
			offs++
		case 0x440008:
			vals++
		}
		if a.Write {
			writes++
		}
	}
	if offs == 0 || vals == 0 {
		t.Errorf("graph phases missing: offsets=%d values=%d", offs, vals)
	}
	if vals < offs {
		t.Errorf("fewer neighbour accesses (%d) than nodes (%d)", vals, offs)
	}
	if writes == 0 {
		t.Error("no writes despite writeFrac=50")
	}
}

func TestMatmulColumnStride(t *testing.T) {
	const n = 512
	r := NewMatmul(1, 0, n)
	var bAddrs []mem.Addr
	var a Access
	for i := 0; i < 30; i++ {
		r.Next(&a)
		if a.PC == 0x450008 {
			bAddrs = append(bAddrs, a.VAddr)
		}
	}
	if len(bAddrs) < 2 {
		t.Fatal("no B-matrix accesses")
	}
	if bAddrs[1]-bAddrs[0] != n*8 {
		t.Errorf("B column stride = %d bytes, want %d", bAddrs[1]-bAddrs[0], n*8)
	}
}

func TestQMMVariantsDiffer(t *testing.T) {
	a := take(NewQMM(1), 100)
	b := take(NewQMM(999), 100)
	same := 0
	for i := range a {
		if a[i].VAddr == b[i].VAddr {
			same++
		}
	}
	if same == len(a) {
		t.Error("different QMM seeds produced identical traces")
	}
}

func TestHashServeMixesPatterns(t *testing.T) {
	r := NewHashServe(5, 1, 1<<24, 1<<24)
	accs := take(r, 500)
	pcs := map[mem.Addr]int{}
	for _, a := range accs {
		pcs[a.PC]++
	}
	if pcs[0x460000] == 0 {
		t.Error("no bucket probes")
	}
	if pcs[0x460008]+pcs[0x460010] == 0 {
		t.Error("no chain/blob accesses")
	}
}

func TestGatherLocalityKnob(t *testing.T) {
	local := take(NewGather(3, 0, 1<<20, 1<<26, 95), 4000)
	remote := take(NewGather(3, 0, 1<<20, 1<<26, 0), 4000)
	near := func(accs []Access) int {
		n := 0
		var prev mem.Addr
		for _, a := range accs {
			if a.PC != 0x430008 {
				continue
			}
			if prev != 0 && (a.VAddr-prev) < 1<<12 {
				n++
			}
			prev = a.VAddr
		}
		return n
	}
	if near(local) <= near(remote) {
		t.Errorf("locality knob ineffective: local=%d remote=%d", near(local), near(remote))
	}
}

func TestAllWorkloadsDescribed(t *testing.T) {
	for _, w := range All() {
		if w.Description == "" {
			t.Errorf("workload %q lacks a description", w.Name)
		}
	}
}
