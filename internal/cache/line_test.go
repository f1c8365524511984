package cache

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mem"
)

// lineFields is a line word unpacked into plain fields.
type lineFields struct {
	readyAt           mem.Cycle
	dirty, prefetched bool
	prefID, core      uint8
}

func (f lineFields) pack() line {
	return newLine(f.readyAt, f.dirty, f.prefetched, f.prefID, f.core)
}

func unpack(l line) lineFields {
	return lineFields{readyAt: l.readyAt(), dirty: l.dirty(), prefetched: l.prefetched(),
		prefID: l.prefID(), core: l.core()}
}

func randomFields(rng *rand.Rand) lineFields {
	return lineFields{
		readyAt:    mem.Cycle(rng.Int63n(lineReadyMask + 1)),
		dirty:      rng.Intn(2) == 0,
		prefetched: rng.Intn(2) == 0,
		prefID:     uint8(rng.Intn(256)),
		core:       uint8(rng.Intn(256)),
	}
}

// TestLineWordFieldsRoundTrip varies one field of the line word at a time
// over its whole range (readyAt over its edges and random values) on random
// backgrounds: the field reads back exactly and every other field is
// untouched, whether packed by newLine or changed in place by a setter.
func TestLineWordFieldsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(what string, l line, want lineFields) {
		t.Helper()
		if got := unpack(l); got != want {
			t.Fatalf("%s: word %#x unpacks to %+v, want %+v", what, uint64(l), got, want)
		}
	}
	readyAts := []mem.Cycle{0, 1, 1 << 32, lineReadyMask - 1, lineReadyMask}
	for i := 0; i < 64; i++ {
		readyAts = append(readyAts, mem.Cycle(rng.Int63n(lineReadyMask+1)))
	}
	for n := 0; n < 50; n++ {
		base := randomFields(rng)
		check("base", base.pack(), base)
		for v := 0; v < 256; v++ {
			f := base
			f.prefID = uint8(v)
			check("prefID", f.pack(), f)
			f = base
			f.core = uint8(v)
			check("core", f.pack(), f)
		}
		for _, c := range readyAts {
			f := base
			f.readyAt = c
			check("readyAt", f.pack(), f)
			l := base.pack()
			l.setReadyAt(c)
			check("setReadyAt", l, f)
		}
		for _, b := range []bool{false, true} {
			f := base
			f.dirty = b
			check("dirty", f.pack(), f)
			f = base
			f.prefetched = b
			check("prefetched", f.pack(), f)
		}
		l, f := base.pack(), base
		l.markDirty()
		f.dirty = true
		check("mark dirty", l, f)
		l.clearPrefetched()
		f.prefetched = false
		check("clear prefetched", l, f)
	}
}

// TestFillPastReadyLimitPanics: a fill whose completion needs more than the
// line word's 44 bits panics with a message naming the limit instead of
// wrapping into an early completion; the last representable cycle fills.
func TestFillPastReadyLimitPanics(t *testing.T) {
	c := New(Config{Name: "c", Sets: 16, Ways: 4, Latency: 1, MSHREntries: 4}, nil)
	const last = mem.Cycle(lineReadyMask)
	if done := c.Access(load(0x40), last-1); done != last {
		t.Fatalf("fill at the limit completed at %d, want %d", done, last)
	}
	if l := c.find(0x40); l == nil || l.readyAt() != last {
		t.Fatal("line filled at the limit lost its completion cycle")
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "44-bit limit") {
			t.Fatalf("fill completing at 2^44 did not panic with the limit: %v", r)
		}
	}()
	c.Access(load(0x80), last)
}
