package trace

import (
	"sync"
	"testing"

	"repro/internal/mem"
)

// setChaseMemo replaces the memoized visit-order prefix of (seed, nodes);
// a nil order drops it.
func setChaseMemo(seed uint64, nodes int, order []int32) {
	key := [2]uint64{seed, uint64(nodes)}
	chaseOrders.Lock()
	defer chaseOrders.Unlock()
	if order == nil {
		delete(chaseOrders.m, key)
		return
	}
	if chaseOrders.m == nil {
		chaseOrders.m = make(map[[2]uint64][]int32)
	}
	chaseOrders.m[key] = order
}

// chaseMemoEntries is the total length of every memoized prefix.
func chaseMemoEntries() int {
	chaseOrders.Lock()
	defer chaseOrders.Unlock()
	n := 0
	for _, o := range chaseOrders.m {
		n += len(o)
	}
	return n
}

// refChasePerm is the reference cycle: the full Sattolo permutation the
// reader's visit order is a walk of.
func refChasePerm(seed uint64, nodes int) []int32 {
	r := newRNG(seed)
	perm := make([]int32, nodes)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := nodes - 1; i > 0; i-- {
		j := r.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// FuzzChaseOrder: a chase reader visits exactly the nodes a direct walk of
// the Sattolo permutation from node 0 visits, through every growth of the
// memoized prefix and every wrap past the end of the cycle. first, when
// nonzero, seeds the memo with a prefix that short, so the reader doubles its
// way up from it; a second reader of the same key trails the first, reading
// prefixes the first one grew.
func FuzzChaseOrder(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(5), uint8(0))
	f.Add(uint64(7), uint16(1), uint16(12), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nodesIn, hopsIn uint16, first uint8) {
		nodes := 2 + int(nodesIn)%4999
		hops := int(hopsIn) % (4*nodes + 1)
		setChaseMemo(seed, nodes, nil)
		if first > 0 {
			setChaseMemo(seed, nodes, buildChaseOrder(seed, nodes, min(int(first), nodes)))
		}
		defer setChaseMemo(seed, nodes, nil)

		perm := refChasePerm(seed, nodes)
		lead := NewChase(seed, 0, nodes, mem.BlockSize, 0)
		trail := NewChase(seed, 0, nodes, mem.BlockSize, 0)
		var leadPos, trailPos int32
		var a Access
		check := func(r Reader, pos *int32, hop int, who string) {
			r.Next(&a)
			*pos = perm[*pos]
			if want := arrayBase(0) + mem.Addr(*pos)*mem.BlockSize; a.VAddr != want {
				t.Fatalf("nodes %d: %s reader's hop %d reached %#x, want node %d (%#x)",
					nodes, who, hop, a.VAddr, *pos, want)
			}
		}
		for i := 0; i < hops; i++ {
			check(lead, &leadPos, i, "leading")
			if i%3 == 2 {
				check(trail, &trailPos, i/3, "trailing")
			}
		}
	})
}

// TestChaseConcurrentReaders: readers of one key on several goroutines grow
// and wrap the shared memo under each other and still each see the reference
// walk.
func TestChaseConcurrentReaders(t *testing.T) {
	const seed, nodes, readers = 11, 3*chaseFirstHops + 5, 4
	setChaseMemo(seed, nodes, nil)
	defer setChaseMemo(seed, nodes, nil)
	perm := refChasePerm(seed, nodes)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewChase(seed, 0, nodes, mem.BlockSize, 0)
			var a Access
			pos := int32(0)
			for hop := 0; hop < 3*nodes; hop++ {
				r.Next(&a)
				pos = perm[pos]
				if want := arrayBase(0) + mem.Addr(pos)*mem.BlockSize; a.VAddr != want {
					t.Errorf("hop %d reached %#x, want node %d (%#x)", hop, a.VAddr, pos, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestChaseMemoBudget bounds what the chase memo retains once every
// pointer-chase workload has run a figure-length simulation (20k warmup +
// 80k measured instructions, plus the core's 512-access readahead): the
// prefixes those hops reach, not the cycles. The six share three (seed,
// nodes) keys; holding those cycles in full, as the memo once did, is 1.84M
// entries (7.3 MB).
func TestChaseMemoBudget(t *testing.T) {
	const (
		instructions = 100_000
		readahead    = 512
		// Measured: two prefixes of 8192 entries and one of 4096.
		budget = 20480
	)
	chaseOrders.Lock()
	chaseOrders.m = nil
	chaseOrders.Unlock()
	chases := 0
	for _, w := range All() {
		r := w.New(1)
		if _, ok := r.(*chaseReader); !ok {
			continue
		}
		chases++
		var a Access
		for n := 0; n < instructions; n += a.Gap + 1 {
			r.Next(&a)
		}
		for i := 0; i < readahead; i++ {
			r.Next(&a)
		}
	}
	if chases != 6 {
		t.Fatalf("catalogue has %d pointer-chase workloads, want 6", chases)
	}
	got := chaseMemoEntries()
	t.Logf("chase memo: %d entries (%.2f MB)", got, float64(4*got)/(1<<20))
	if got > budget {
		t.Errorf("chase memo holds %d entries after figure-length runs, budget %d", got, budget)
	}
}
