package trace

import (
	"sync"

	"repro/internal/mem"
)

// ---------------------------------------------------------------------------
// Multi-stream sequential / strided generator (lbm-, bwaves-, libquantum-like)
// ---------------------------------------------------------------------------

// StreamSpec describes one strided stream.
type StreamSpec struct {
	Stride    int64    // bytes between consecutive accesses (may be negative)
	Footprint mem.Addr // bytes before the stream wraps
	Write     bool
}

type streamReader struct {
	specs []StreamSpec
	pos   []int64
	bases []mem.Addr
	gap   int
	turn  int
	r     *rng
}

// NewStreams builds a reader that round-robins over the given strided
// streams with `gap` non-memory instructions between accesses.
func NewStreams(seed uint64, gap int, specs ...StreamSpec) Reader {
	s := &streamReader{specs: specs, gap: gap, r: newRNG(seed)}
	s.pos = make([]int64, len(specs))
	s.bases = make([]mem.Addr, len(specs))
	for i := range specs {
		s.bases[i] = arrayBase(i)
		if specs[i].Stride < 0 {
			s.pos[i] = int64(specs[i].Footprint) - 64
		}
	}
	return s
}

func (s *streamReader) Next(a *Access) bool {
	i := s.turn
	s.turn = (s.turn + 1) % len(s.specs)
	sp := s.specs[i]
	a.PC = 0x400000 + mem.Addr(i)*8
	a.VAddr = s.bases[i] + mem.Addr(s.pos[i])
	a.Write = sp.Write
	a.Gap = s.gap
	s.pos[i] += sp.Stride
	if s.pos[i] >= int64(sp.Footprint) {
		s.pos[i] = 0
	} else if s.pos[i] < 0 {
		s.pos[i] = int64(sp.Footprint) - 64
	}
	return true
}

// ---------------------------------------------------------------------------
// Stencil generator (GemsFDTD-, fotonik3d-, roms-, leslie3d-like)
// ---------------------------------------------------------------------------

type stencilReader struct {
	nx, ny, n int64 // plane geometry in elements (8B each)
	i         int64
	phase     int
	gap       int
}

// NewStencil builds a 3D 7-point-ish stencil sweep over an n-element grid
// with plane dimensions nx × ny. Neighbour accesses at ±nx and ±nx·ny
// elements produce multiple interleaved streams offset by thousands of
// blocks — exactly the pattern that profits from 2MB-wide speculation.
func NewStencil(seed uint64, gap int, nx, ny, n int64) Reader {
	return &stencilReader{nx: nx, ny: ny, n: n, gap: gap}
}

func (s *stencilReader) Next(a *Access) bool {
	const elem = 8
	offsets := [5]int64{0, s.nx, -s.nx, s.nx * s.ny, -s.nx * s.ny}
	idx := s.i + offsets[s.phase]
	for idx < 0 {
		idx += s.n
	}
	idx %= s.n
	a.PC = 0x410000 + mem.Addr(s.phase)*8
	a.VAddr = arrayBase(0) + mem.Addr(idx)*elem
	a.Write = false
	a.Gap = s.gap
	s.phase++
	if s.phase == len(offsets) {
		// Write the centre element of the output grid and advance.
		s.phase = 0
		a.Write = true
		a.VAddr = arrayBase(1) + mem.Addr(s.i)*elem
		s.i = (s.i + 1) % s.n
	}
	return true
}

// ---------------------------------------------------------------------------
// Pointer-chase generator (mcf-, omnetpp-, sat_solver-like)
// ---------------------------------------------------------------------------

type chaseReader struct {
	// order is a prefix of the cycle's visit order (see chaseOrder); next
	// indexes the node the next hop reaches.
	order    []int32
	next     int
	seed     uint64
	nodes    int
	nodeSize mem.Addr
	gap      int
	// aux adds a small sequential side stream (node payload scanning).
	auxLen, auxLeft int
	auxAddr         mem.Addr
}

// chaseFirstHops is the visit-order prefix built on a key's first use, about
// what one short figure simulation hops through.
const chaseFirstHops = 4096

// chaseOrders memoizes, per (seed, nodes), a prefix of the Sattolo cycle's
// visit order from node 0: order[k] is the node reached after k+1 hops. Every
// simulation of a given workload reads the identical sequence, readers only
// ever read it, and a run hops through a few thousand of a million nodes, so
// the memo keeps only the prefix readers have reached (a full cycle costs
// 4 bytes per node) and batches running simulations in parallel share it.
// Bounded to keep long-running daemons flat.
var chaseOrders struct {
	sync.Mutex
	m map[[2]uint64][]int32
}

// chaseOrder returns a memoized visit-order prefix longer than have entries,
// or the whole cycle: chaseFirstHops entries for a new reader (have 0),
// otherwise at least double have, so a key is rebuilt at most
// log2(nodes/chaseFirstHops) times per process.
func chaseOrder(seed uint64, nodes, have int) []int32 {
	key := [2]uint64{seed, uint64(nodes)}
	chaseOrders.Lock()
	defer chaseOrders.Unlock()
	if o, ok := chaseOrders.m[key]; ok && (len(o) > have || len(o) == nodes) {
		return o
	}
	n := chaseFirstHops
	if have > 0 {
		n = 2 * have
	}
	o := buildChaseOrder(seed, nodes, min(n, nodes))
	if chaseOrders.m == nil {
		chaseOrders.m = make(map[[2]uint64][]int32)
	}
	if _, ok := chaseOrders.m[key]; !ok && len(chaseOrders.m) >= 64 {
		for k := range chaseOrders.m {
			delete(chaseOrders.m, k)
			break
		}
	}
	chaseOrders.m[key] = o
	return o
}

// buildChaseOrder shuffles the nodes into one cycle (Sattolo's algorithm) and
// copies out the first hops nodes of its walk from node 0; the permutation
// itself is dropped.
func buildChaseOrder(seed uint64, nodes, hops int) []int32 {
	r := newRNG(seed)
	perm := make([]int32, nodes)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := nodes - 1; i > 0; i-- {
		j := r.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	order := make([]int32, hops)
	pos := int32(0)
	for k := range order {
		pos = perm[pos]
		order[k] = pos
	}
	return order
}

// NewChase builds a pointer chase over nodes nodes arranged in one random
// cycle (Sattolo's algorithm), starting at node 0, with nodeSize bytes per
// node and auxLen sequential payload accesses after each hop.
func NewChase(seed uint64, gap, nodes int, nodeSize mem.Addr, auxLen int) Reader {
	return &chaseReader{order: chaseOrder(seed, nodes, 0), seed: seed, nodes: nodes,
		nodeSize: nodeSize, gap: gap, auxLen: auxLen}
}

func (c *chaseReader) Next(a *Access) bool {
	if c.auxLeft > 0 {
		c.auxLeft--
		c.auxAddr += mem.BlockSize
		a.PC = 0x420010
		a.VAddr = c.auxAddr
		a.Write = false
		a.Gap = c.gap
		return true
	}
	if c.next == len(c.order) {
		// Used up the prefix: past the whole cycle wrap (its last hop
		// returned to node 0), otherwise take a longer one.
		if len(c.order) == c.nodes {
			c.next = 0
		} else {
			c.order = chaseOrder(c.seed, c.nodes, len(c.order))
		}
	}
	pos := c.order[c.next]
	c.next++
	a.PC = 0x420000
	a.VAddr = arrayBase(0) + mem.Addr(pos)*c.nodeSize
	a.Write = false
	a.Gap = c.gap
	if c.auxLen > 0 {
		c.auxLeft = c.auxLen
		c.auxAddr = a.VAddr
	}
	return true
}

// ---------------------------------------------------------------------------
// Gather generator (soplex-, sphinx3-, astar-like)
// ---------------------------------------------------------------------------

type gatherReader struct {
	idxFoot  mem.Addr
	dataFoot mem.Addr
	locality int // percent of gathers near the previous one
	idxPos   mem.Addr
	lastData mem.Addr
	phase    int
	gap      int
	r        *rng
}

// NewGather interleaves a sequential index-array scan with data gathers;
// locality (0..100) is the share of gathers landing near the previous one.
func NewGather(seed uint64, gap int, idxFoot, dataFoot mem.Addr, locality int) Reader {
	return &gatherReader{idxFoot: idxFoot, dataFoot: dataFoot, locality: locality, gap: gap, r: newRNG(seed)}
}

func (g *gatherReader) Next(a *Access) bool {
	a.Gap = g.gap
	a.Write = false
	if g.phase == 0 {
		g.phase = 1
		a.PC = 0x430000
		a.VAddr = arrayBase(0) + g.idxPos
		g.idxPos = (g.idxPos + 8) % g.idxFoot
		return true
	}
	g.phase = 0
	a.PC = 0x430008
	if g.r.intn(100) < g.locality {
		g.lastData = (g.lastData + mem.Addr(g.r.intn(8))*mem.BlockSize) % g.dataFoot
	} else {
		g.lastData = mem.Addr(g.r.next()) % g.dataFoot
	}
	a.VAddr = arrayBase(1) + mem.BlockAlign(g.lastData)
	return true
}

// ---------------------------------------------------------------------------
// Road-graph generator (GAP bfs/cc/bc/sssp/tc/pr over the road input)
// ---------------------------------------------------------------------------

type graphReader struct {
	nodes     int64
	node      int64
	degLeft   int
	window    int64 // neighbour locality window (road graphs are near-diagonal)
	valElem   mem.Addr
	phase     int
	gap       int
	writeFrac int // percent of value accesses that are writes (pr/sssp update)
	r         *rng
}

// NewRoadGraph models CSR traversal of a road-like graph: a sequential scan
// of the offsets array, low-degree near-diagonal neighbour gathers into the
// values array, and optional result writes.
func NewRoadGraph(seed uint64, gap int, nodes int64, window int64, writeFrac int) Reader {
	return &graphReader{nodes: nodes, window: window, valElem: 8, gap: gap, writeFrac: writeFrac, r: newRNG(seed)}
}

func (g *graphReader) Next(a *Access) bool {
	a.Gap = g.gap
	a.Write = false
	switch g.phase {
	case 0: // offsets[node] — sequential
		a.PC = 0x440000
		a.VAddr = arrayBase(0) + mem.Addr(g.node)*4
		g.degLeft = 2 + g.r.intn(3) // road graphs: degree 2..4
		g.phase = 1
	case 1: // values[neighbour] — near-diagonal gather
		a.PC = 0x440008
		// Road graphs (renumbered for locality, as GAP does) are dominated by
		// short diagonal links: ±1..±8 neighbours for street segments, with a
		// modest share of longer ramp/bridge links within the window.
		var d int64
		switch {
		case g.r.intn(100) < 85:
			d = int64(1 + g.r.intn(8))
			if g.r.intn(2) == 0 {
				d = -d
			}
		case g.r.intn(100) < 60:
			d = int64(16 + g.r.intn(48))
			if g.r.intn(2) == 0 {
				d = -d
			}
		default:
			d = int64(g.r.intn(int(2*g.window+1))) - g.window
		}
		nbr := g.node + d
		if nbr < 0 {
			nbr += g.nodes
		}
		nbr %= g.nodes
		a.VAddr = arrayBase(1) + mem.Addr(nbr)*g.valElem
		if g.r.intn(100) < g.writeFrac {
			a.Write = true
		}
		g.degLeft--
		if g.degLeft == 0 {
			g.phase = 2
		}
	case 2: // result[node] — sequential write
		a.PC = 0x440010
		a.VAddr = arrayBase(2) + mem.Addr(g.node)*g.valElem
		a.Write = true
		g.node = (g.node + 1) % g.nodes
		g.phase = 0
	}
	return true
}

// ---------------------------------------------------------------------------
// Dense linear algebra generator (mlpack-like)
// ---------------------------------------------------------------------------

type matmulReader struct {
	n       int64 // square matrix dimension in elements
	i, j, k int64
	phase   int
	gap     int
}

// NewMatmul models naive row×column matrix multiply: A scanned row-wise
// (sequential), B column-wise (stride n elements, crossing a 4KB page every
// few accesses for large n), C accumulated.
func NewMatmul(seed uint64, gap int, n int64) Reader {
	return &matmulReader{n: n, gap: gap}
}

func (m *matmulReader) Next(a *Access) bool {
	const elem = 8
	a.Gap = m.gap
	a.Write = false
	switch m.phase {
	case 0: // A[i][k]
		a.PC = 0x450000
		a.VAddr = arrayBase(0) + mem.Addr(m.i*m.n+m.k)*elem
		m.phase = 1
	case 1: // B[k][j] — large stride
		a.PC = 0x450008
		a.VAddr = arrayBase(1) + mem.Addr(m.k*m.n+m.j)*elem
		m.phase = 2
	case 2: // C[i][j]
		a.PC = 0x450010
		a.VAddr = arrayBase(2) + mem.Addr(m.i*m.n+m.j)*elem
		a.Write = true
		m.phase = 0
		m.k++
		if m.k == m.n {
			m.k = 0
			m.j++
			if m.j == m.n {
				m.j = 0
				m.i = (m.i + 1) % m.n
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Hash-table serving generator (CloudSuite data_caching-like)
// ---------------------------------------------------------------------------

type hashReader struct {
	tableFoot mem.Addr
	blobFoot  mem.Addr
	chainLeft int
	blobLeft  int
	cur       mem.Addr
	gap       int
	r         *rng
}

// NewHashServe models a memcached-style service: random bucket probes with
// short chain walks and occasional sequential value-blob reads.
func NewHashServe(seed uint64, gap int, tableFoot, blobFoot mem.Addr) Reader {
	return &hashReader{tableFoot: tableFoot, blobFoot: blobFoot, gap: gap, r: newRNG(seed)}
}

func (h *hashReader) Next(a *Access) bool {
	a.Gap = h.gap
	a.Write = false
	switch {
	case h.chainLeft > 0:
		h.chainLeft--
		h.cur += mem.BlockSize
		a.PC = 0x460008
		a.VAddr = h.cur
	case h.blobLeft > 0:
		h.blobLeft--
		h.cur += mem.BlockSize
		a.PC = 0x460010
		a.VAddr = h.cur
	default:
		a.PC = 0x460000
		h.cur = arrayBase(0) + mem.BlockAlign(mem.Addr(h.r.next())%h.tableFoot)
		a.VAddr = h.cur
		h.chainLeft = h.r.intn(3)
		if h.r.intn(4) == 0 {
			h.blobLeft = 4 + h.r.intn(8)
			h.cur = arrayBase(1) + mem.BlockAlign(mem.Addr(h.r.next())%h.blobFoot)
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// QMM-like mixture generator (Qualcomm CVP-1 industrial traces)
// ---------------------------------------------------------------------------

type qmmReader struct {
	specs   []StreamSpec
	pos     []int64
	bases   []mem.Addr
	jumpPct int // percent of accesses that jump randomly within the stream
	gap     int
	turn    int
	r       *rng
}

// NewQMM derives a stream mixture entirely from the seed: 2-5 strided
// streams with strides up to ±32 blocks, a random-jump share, and a gap of
// 1-4 — a family of industrial-looking kernels.
func NewQMM(seed uint64) Reader {
	r := newRNG(seed)
	n := 2 + r.intn(2)
	q := &qmmReader{r: r}
	q.gap = 4 + r.intn(4)
	q.jumpPct = r.intn(2)
	for i := 0; i < n; i++ {
		// Mostly element-scale strides (high L1 reuse); occasionally a
		// multi-block stride that crosses 4KB pages quickly.
		stride := int64(8 * (1 + r.intn(8)))
		if r.intn(5) == 0 {
			stride = int64(1+r.intn(32)) * 64
		}
		if r.intn(4) == 0 {
			stride = -stride
		}
		foot := mem.Addr(4+r.intn(28)) << 20 // 4..32 MB
		q.specs = append(q.specs, StreamSpec{
			Stride:    stride,
			Footprint: foot,
			Write:     r.intn(5) == 0,
		})
		q.bases = append(q.bases, arrayBase(i))
		start := int64(0)
		if stride < 0 {
			start = int64(foot) - 64
		}
		q.pos = append(q.pos, start)
	}
	return q
}

func (q *qmmReader) Next(a *Access) bool {
	i := q.turn
	q.turn = (q.turn + 1) % len(q.specs)
	sp := q.specs[i]
	if q.jumpPct > 0 && q.r.intn(100) < q.jumpPct {
		q.pos[i] = int64(mem.BlockAlign(mem.Addr(q.r.next()) % sp.Footprint))
	}
	a.PC = 0x470000 + mem.Addr(i)*8
	a.VAddr = q.bases[i] + mem.Addr(q.pos[i])
	a.Write = sp.Write
	a.Gap = q.gap
	q.pos[i] += sp.Stride
	if q.pos[i] >= int64(sp.Footprint) {
		q.pos[i] = 0
	} else if q.pos[i] < 0 {
		q.pos[i] = int64(sp.Footprint) - 64
	}
	return true
}
