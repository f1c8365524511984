package trace

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/vm"
)

// Suite labels, matching Figure 9's grouping.
const (
	SuiteSPEC06 = "SPEC06"
	SuiteSPEC17 = "SPEC17"
	SuiteGAP    = "GAP"
	SuiteCloud  = "CLOUD"
	SuiteML     = "ML"
	SuiteQMM    = "QMM"
)

const mb = mem.Addr(1) << 20

// thp builds a fixed-fraction THP policy with a per-workload seed.
func thp(frac float64, seed uint64) vm.THPPolicy {
	return vm.FractionTHP{Frac: frac, Seed: seed}
}

func streams(gap int, specs ...StreamSpec) func(uint64) Reader {
	return func(seed uint64) Reader { return NewStreams(seed, gap, specs...) }
}

// seq builds n sequential element-granular streams: consecutive 8-byte
// accesses, so 7 of 8 land in the same cache block (L1 hits), giving
// realistic L2 MPKIs instead of one miss per reference.
func seq(foot mem.Addr, n int) []StreamSpec {
	out := make([]StreamSpec, n)
	for i := range out {
		out[i] = StreamSpec{Stride: 8, Footprint: foot}
	}
	return out
}

// catalogue lists every workload stand-in. The THP fractions mirror the
// paper's Figure 3 measurements and its per-workload commentary (e.g. soplex,
// hmmer, omnetpp, gcc_s and graph_analytics operate mainly on 4KB pages; most
// fp workloads keep ≈85-99% of memory in 2MB pages).
var catalogue = []Workload{
	// ----------------------------- SPEC CPU 2006 -----------------------------
	{Name: "gcc", Description: "index scan + data gathers with moderate locality; mostly 4KB pages", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.30, 1),
		New: func(s uint64) Reader { return NewGather(s, 5, 4*mb, 24*mb, 55) }},
	{Name: "bwaves", Description: "five sequential element streams over 24MB arrays; 2MB-page heavy", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.95, 2),
		New: streams(5, seq(24*mb, 5)...)},
	{Name: "mcf", Description: "pointer chase over 1M nodes with payload scans; THP share ramps up", Suite: SuiteSPEC06, Intensive: true,
		THP: vm.RampTHP{StartFrac: 0.4, EndFrac: 0.9, RampRegions: 12, Seed: 3},
		New: func(s uint64) Reader { return NewChase(s, 8, 1<<20, 192, 1) }},
	{Name: "milc", Description: "two 80-block strided streams (page-crossing on every access) plus a fine stream", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.98, 4),
		// Strides of 80 blocks cross a 4KB page every access: only 2MB-grain
		// delta tracking can express this pattern (the paper's PSA-2MB win).
		New: streams(5,
			StreamSpec{Stride: 80 * 64, Footprint: 32 * mb},
			StreamSpec{Stride: 80 * 64, Footprint: 32 * mb},
			StreamSpec{Stride: 8, Footprint: 8 * mb})},
	{Name: "cactus", Description: "small-plane 3D stencil with fine-grain 4KB patterns", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.85, 5),
		New: func(s uint64) Reader { return NewStencil(s, 5, 48, 48, 2<<20) }},
	{Name: "leslie3d", Description: "mid-plane 3D stencil sweep", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.90, 6),
		New: func(s uint64) Reader { return NewStencil(s, 4, 96, 96, 2<<20) }},
	{Name: "gobmk", Description: "low-locality gathers over a small index set", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.30, 7),
		New: func(s uint64) Reader { return NewGather(s, 6, 2*mb, 12*mb, 40) }},
	{Name: "soplex", Description: "high-locality gathers; mainly 4KB pages (the paper's 4KB outlier)", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.15, 8),
		New: func(s uint64) Reader { return NewGather(s, 6, 8*mb, 20*mb, 70) }},
	{Name: "hmmer", Description: "two fine streams; mainly 4KB pages", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.15, 9),
		New: streams(5, StreamSpec{Stride: 8, Footprint: 6 * mb},
			StreamSpec{Stride: 16, Footprint: 6 * mb, Write: true})},
	{Name: "GemsFDTD", Description: "large-plane stencil: interleaved streams offset by thousands of blocks", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.92, 10),
		New: func(s uint64) Reader { return NewStencil(s, 4, 256, 256, 3<<20) }},
	{Name: "libquantum", Description: "one read and one write sequential stream over 32MB; ~all 2MB pages", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.99, 11),
		New: streams(5, StreamSpec{Stride: 8, Footprint: 32 * mb},
			StreamSpec{Stride: 8, Footprint: 32 * mb, Write: true})},
	{Name: "lbm", Description: "five-stream lattice sweep incl. a write stream", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.95, 12),
		New: streams(6, append(seq(24*mb, 4),
			StreamSpec{Stride: 8, Footprint: 24 * mb, Write: true})...)},
	{Name: "omnetpp", Description: "pointer chase with short payload scans; mainly 4KB pages", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.20, 13),
		New: func(s uint64) Reader { return NewChase(s, 7, 1<<19, 256, 2) }},
	{Name: "astar", Description: "mixed index scan + gathers", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.50, 14),
		New: func(s uint64) Reader { return NewGather(s, 5, 4*mb, 16*mb, 60) }},
	{Name: "wrf", Description: "asymmetric-plane stencil", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.80, 15),
		New: func(s uint64) Reader { return NewStencil(s, 5, 128, 64, 2<<20) }},
	{Name: "sphinx3", Description: "gathers with high locality", Suite: SuiteSPEC06, Intensive: true, THP: thp(0.70, 16),
		New: func(s uint64) Reader { return NewGather(s, 6, 6*mb, 12*mb, 80) }},

	// ----------------------------- SPEC CPU 2017 -----------------------------
	{Name: "gcc_s", Description: "as gcc; mainly 4KB pages", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.20, 20),
		New: func(s uint64) Reader { return NewGather(s, 5, 4*mb, 20*mb, 50) }},
	{Name: "bwaves_s", Description: "six sequential streams over 28MB arrays", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.95, 21),
		New: streams(5, seq(28*mb, 6)...)},
	{Name: "mcf_s", Description: "denser pointer chase; THP ramps", Suite: SuiteSPEC17, Intensive: true,
		THP: vm.RampTHP{StartFrac: 0.4, EndFrac: 0.9, RampRegions: 16, Seed: 22},
		New: func(s uint64) Reader { return NewChase(s, 7, 1<<20, 128, 1) }},
	{Name: "cactuBSSN_s", Description: "small stencil, fine-grain patterns", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.85, 23),
		New: func(s uint64) Reader { return NewStencil(s, 4, 64, 32, 2<<20) }},
	{Name: "lbm_s", Description: "six-stream lattice sweep", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.95, 24),
		New: streams(6, append(seq(32*mb, 5),
			StreamSpec{Stride: 8, Footprint: 32 * mb, Write: true})...)},
	{Name: "omnetpp_s", Description: "pointer chase, larger nodes; mainly 4KB", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.20, 25),
		New: func(s uint64) Reader { return NewChase(s, 7, 1<<19, 320, 2) }},
	{Name: "wrf_s", Description: "stencil", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.80, 26),
		New: func(s uint64) Reader { return NewStencil(s, 5, 160, 96, 2<<20) }},
	{Name: "xalancbmk_s", Description: "small-node pointer chase", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.40, 27),
		New: func(s uint64) Reader { return NewChase(s, 6, 1<<18, 96, 3) }},
	{Name: "x264_s", Description: "three streams with mixed 8-24B strides", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.60, 28),
		New: streams(5, StreamSpec{Stride: 24, Footprint: 8 * mb},
			StreamSpec{Stride: 8, Footprint: 8 * mb},
			StreamSpec{Stride: 8, Footprint: 4 * mb, Write: true})},
	{Name: "cam4_s", Description: "stencil", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.70, 29),
		New: func(s uint64) Reader { return NewStencil(s, 5, 96, 48, 2<<20) }},
	{Name: "pop2_s", Description: "stencil", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.75, 30),
		New: func(s uint64) Reader { return NewStencil(s, 5, 192, 128, 2<<20) }},
	{Name: "leela_s", Description: "light gathers", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.30, 31),
		New: func(s uint64) Reader { return NewGather(s, 6, 2*mb, 8*mb, 45) }},
	{Name: "fotonik3d_s", Description: "large-plane stencil (the paper's PSA showcase)", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.90, 32),
		New: func(s uint64) Reader { return NewStencil(s, 4, 288, 288, 3<<20) }},
	{Name: "roms_s", Description: "large-plane stencil", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.85, 33),
		New: func(s uint64) Reader { return NewStencil(s, 4, 224, 160, 3<<20) }},
	{Name: "xz_s", Description: "gathers with moderate locality", Suite: SuiteSPEC17, Intensive: true, THP: thp(0.50, 34),
		New: func(s uint64) Reader { return NewGather(s, 6, 8*mb, 16*mb, 65) }},

	// --------------------------------- GAP -----------------------------------
	{Name: "bfs.road", Description: "CSR road-graph traversal, short diagonal links", Suite: SuiteGAP, Intensive: true, THP: thp(0.80, 40),
		New: func(s uint64) Reader { return NewRoadGraph(s, 4, 3<<20, 256, 5) }},
	{Name: "cc.road", Description: "road graph with wider link window", Suite: SuiteGAP, Intensive: true, THP: thp(0.80, 41),
		New: func(s uint64) Reader { return NewRoadGraph(s, 4, 3<<20, 384, 15) }},
	{Name: "bc.road", Description: "road graph, moderate writes", Suite: SuiteGAP, Intensive: true, THP: thp(0.80, 42),
		New: func(s uint64) Reader { return NewRoadGraph(s, 5, 3<<20, 320, 10) }},
	{Name: "sssp.road", Description: "road graph with frequent relaxation writes", Suite: SuiteGAP, Intensive: true, THP: thp(0.80, 43),
		New: func(s uint64) Reader { return NewRoadGraph(s, 5, 3<<20, 256, 25) }},
	{Name: "tc.road", Description: "tight 4KB-grain neighbour reuse (hurt by 2MB-grain indexing)", Suite: SuiteGAP, Intensive: true, THP: thp(0.80, 44),
		// Triangle counting: tight neighbour windows, fine 4KB-grain reuse —
		// the workload the paper calls out as hurt by 2MB-grain indexing.
		New: func(s uint64) Reader { return NewRoadGraph(s, 3, 3<<20, 64, 0) }},
	{Name: "pr.road", Description: "road pagerank: streams + near-diagonal gathers + rank writes", Suite: SuiteGAP, Intensive: true, THP: thp(0.80, 45),
		New: func(s uint64) Reader { return NewRoadGraph(s, 4, 3<<20, 192, 30) }},

	// ------------------------------- CloudSuite ------------------------------
	{Name: "data_caching", Description: "memcached-style bucket probes, chain walks, blob reads", Suite: SuiteCloud, Intensive: true, THP: thp(0.60, 50),
		New: func(s uint64) Reader { return NewHashServe(s, 5, 24*mb, 16*mb) }},
	{Name: "graph_analytics", Description: "wide-window graph gathers; mainly 4KB pages", Suite: SuiteCloud, Intensive: true, THP: thp(0.15, 51),
		New: func(s uint64) Reader { return NewRoadGraph(s, 4, 4<<20, 1<<17, 10) }},

	// ----------------------------------- ML ----------------------------------
	{Name: "mlpack_cf", Description: "naive matmul: row stream + column stride + accumulator writes", Suite: SuiteML, Intensive: true, THP: thp(0.90, 60),
		New: func(s uint64) Reader { return NewMatmul(s, 4, 1400) }},
	{Name: "sat_solver", Description: "small-node pointer chase with payload scans", Suite: SuiteML, Intensive: true, THP: thp(0.50, 61),
		New: func(s uint64) Reader { return NewChase(s, 6, 1<<19, 80, 3) }},
}

// qmmNames lists the Qualcomm trace names exactly as they appear on the
// Figure 8 x-axis.
var qmmNames = []string{
	"qmm_int_315", "qmm_fp_12", "qmm_int_345", "qmm_int_398", "qmm_fp_87",
	"qmm_int_763", "qmm_fp_4", "qmm_fp_8", "qmm_fp_96", "qmm_fp_1",
	"qmm_fp_65", "qmm_int_906", "qmm_fp_95", "qmm_fp_67", "qmm_fp_133",
	"qmm_fp_15", "qmm_fp_14", "qmm_fp_136", "qmm_fp_48", "qmm_fp_5",
	"qmm_fp_7", "qmm_fp_101", "qmm_fp_45", "qmm_fp_30", "qmm_fp_139",
	"qmm_fp_105", "qmm_fp_128", "qmm_fp_71", "qmm_fp_51", "qmm_fp_111",
	"qmm_fp_110", "qmm_fp_6", "qmm_fp_134", "qmm_int_859", "qmm_fp_130",
	"qmm_fp_116", "qmm_fp_112", "qmm_fp_127", "qmm_int_21",
}

// nonIntensive lists SPEC stand-ins with footprints that mostly fit in the
// LLC (MPKI < 1), used by the paper's Section VI-B1 extended evaluation.
var nonIntensive = []Workload{}

func init() {
	// QMM workloads are derived entirely from their names: seed drives the
	// stream mixture and the THP fraction (0.55..0.98).
	for i, name := range qmmNames {
		s := uint64(i)*0x9e3779b97f4a7c15 + 12345
		frac := 0.55 + float64((s>>7)%44)/100
		name := name
		catalogue = append(catalogue, Workload{
			Name: name, Suite: SuiteQMM, Intensive: true,
			Description: "seed-derived industrial kernel: 2-3 strided streams, occasional multi-block strides and rare jumps",
			THP:         thp(frac, s),
			New:         func(seed uint64) Reader { return NewQMM(seed ^ s) },
		})
	}

	small := []struct {
		name  string
		suite string
	}{
		{"perlbench", SuiteSPEC06}, {"namd", SuiteSPEC06}, {"povray", SuiteSPEC06},
		{"gamess", SuiteSPEC06}, {"h264ref", SuiteSPEC06}, {"dealII", SuiteSPEC06},
		{"imagick_s", SuiteSPEC17}, {"nab_s", SuiteSPEC17},
		{"exchange2_s", SuiteSPEC17}, {"deepsjeng_s", SuiteSPEC17},
	}
	for i, w := range small {
		foot := mem.Addr(768+128*mem.Addr(i%3)) << 10 // 768KB..1MB: mostly LLC-resident
		nonIntensive = append(nonIntensive, Workload{
			Name: w.name, Suite: w.suite, Intensive: false,
			Description: "LLC-resident streams (non-intensive control)",
			THP:         thp(0.5, uint64(100+i)),
			New: streams(6, StreamSpec{Stride: 64, Footprint: foot},
				StreamSpec{Stride: 128, Footprint: foot}),
		})
	}
}

// Intensive returns the paper's 80 memory-intensive workloads.
func Intensive() []Workload {
	out := make([]Workload, 0, len(catalogue))
	for _, w := range catalogue {
		if w.Intensive {
			out = append(out, w)
		}
	}
	return out
}

// All returns the intensive set plus the non-intensive SPEC extras.
func All() []Workload {
	return append(Intensive(), nonIntensive...)
}

// ByName finds a workload in the full set, All's, in All's order; it
// searches the catalogue in place rather than build All's copy.
func ByName(name string) (Workload, error) {
	for i := range catalogue {
		if catalogue[i].Intensive && catalogue[i].Name == name {
			return catalogue[i], nil
		}
	}
	for i := range nonIntensive {
		if nonIntensive[i].Name == name {
			return nonIntensive[i], nil
		}
	}
	return Workload{}, fmt.Errorf("trace: unknown workload %q", name)
}

// Suites returns the distinct suite labels of the intensive set, sorted.
func Suites() []string {
	seen := map[string]bool{}
	for _, w := range Intensive() {
		seen[w.Suite] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// BySuite returns the intensive workloads of one suite.
func BySuite(suite string) []Workload {
	var out []Workload
	for _, w := range Intensive() {
		if w.Suite == suite {
			out = append(out, w)
		}
	}
	return out
}
