package cache

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/recency"
)

// stampModel is the timestamp LRU the recency order replaced: each way keeps
// its last fill-or-touch tick (0 = never filled), and the victim is the
// first strict minimum — the first invalid way, else the least recently used.
type stampModel struct {
	stamps []uint64
	tick   uint64
}

func (m *stampModel) touch(way int) {
	m.tick++
	m.stamps[way] = m.tick
}

func (m *stampModel) victim() int {
	v := 0
	for i, s := range m.stamps {
		if s < m.stamps[v] {
			v = i
		}
	}
	return v
}

// runRecencyScript replays a fill/touch script against a ways-way LRU cache
// and the timestamp model, comparing the victim after every step. Each
// script byte is one step: an even byte fills a fresh block into the set
// (through the cache's own fill, which picks the victim), an odd byte
// touches the valid way it selects. Two sets run the same script, one
// shifted by a step, so a promotion that leaked into the wrong set's order
// word shows up as a divergence.
func runRecencyScript(t *testing.T, ways int, script []byte) {
	t.Helper()
	c := New(Config{Name: "c", Sets: 2, Ways: ways, Latency: 1, MSHREntries: 4}, nil)
	models := [2]stampModel{{stamps: make([]uint64, ways)}, {stamps: make([]uint64, ways)}}
	next := mem.Addr(0)
	step := func(si int, op byte) {
		m := &models[si]
		if op&1 == 0 {
			next++
			block := (next*2 + mem.Addr(si)) << mem.BlockBits
			want := m.victim()
			c.fill(si, block, 0, 0, &mem.Request{PAddr: block, Type: mem.Load})
			if got := c.tags[si*ways+want]; got == tagInvalid || blockOf(got) != block {
				t.Fatalf("ways=%d set %d: fill landed away from model victim way %d", ways, si, want)
			}
			m.touch(want)
			return
		}
		var valid []int
		for w := 0; w < ways; w++ {
			if m.stamps[w] != 0 {
				valid = append(valid, w)
			}
		}
		if len(valid) == 0 {
			return
		}
		way := valid[int(op>>1)%len(valid)]
		c.touchAt(si, si*ways+way)
		m.touch(way)
	}
	for i, op := range script {
		step(0, op)
		if i > 0 {
			step(1, script[i-1])
		}
		for si := range models {
			if got, want := c.victim(si), models[si].victim(); got != want {
				t.Fatalf("ways=%d set %d step %d: victim %d, timestamp model %d (order %#x)",
					ways, si, i, got, want, c.order[si])
			}
		}
	}
}

// TestRecencyOrderMatchesTimestamps drives random fill/touch scripts for
// every way count the order word supports.
func TestRecencyOrderMatchesTimestamps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= recency.MaxWays; ways++ {
		for n := 0; n < 50; n++ {
			script := make([]byte, 1+rng.Intn(4*ways+40))
			rng.Read(script)
			runRecencyScript(t, ways, script)
		}
	}
}

// FuzzRecencyOrder is the script above as a fuzz target: the first byte picks
// the way count (1..16), the rest is the script.
func FuzzRecencyOrder(f *testing.F) {
	f.Add([]byte{15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0}) // 16 ways filled, then reuse
	f.Add([]byte{7, 0, 1, 0, 3, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0})                       // touches interleaved with fills
	f.Add([]byte{0, 0, 1, 0, 1, 1})                                                  // one way
	f.Add([]byte{11, 1, 1, 0, 2, 4, 1, 3, 5, 7, 9, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 512 {
			data = data[:512]
		}
		runRecencyScript(t, int(data[0]%recency.MaxWays)+1, data[1:])
	})
}

// TestNewRejectsTooManyWays: the order word holds 16 ways; a 17-way geometry
// must be refused at construction, not mis-evict later.
func TestNewRejectsTooManyWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted 17 ways")
		}
	}()
	New(Config{Name: "c", Sets: 1, Ways: recency.MaxWays + 1, Latency: 1, MSHREntries: 4}, nil)
}
