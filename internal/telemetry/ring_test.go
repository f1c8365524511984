package telemetry

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzRing replays push scripts against a slice model: data[0] picks the
// capacity (0..31), every further byte is one pushed value. After each push
// the ring must hold exactly the model's newest capacity values
// oldest-first, and Total and Dropped must count every push and every
// overwrite.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})                   // capacity 0 keeps nothing
	f.Add([]byte{1, 9, 8, 7})                   // capacity 1 keeps the newest
	f.Add([]byte{4, 1, 2, 3})                   // never fills
	f.Add([]byte{4, 1, 2, 3, 4})                // fills exactly
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9}) // wraps three times
	f.Add([]byte{31, 0, 0, 0, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0] % 32)
		r := NewRing[byte](capacity)
		var model []byte
		for i, v := range data[1:] {
			r.Push(v)
			model = append(model, v)
			kept := model[max(len(model)-capacity, 0):]
			if got := r.AppendTo(nil); !slices.Equal(got, kept) {
				t.Fatalf("cap %d, push %d: ring holds %v, want %v", capacity, i, got, kept)
			}
			if r.Total() != uint64(len(model)) || r.Dropped() != uint64(len(model)-len(kept)) {
				t.Fatalf("cap %d, push %d: total/dropped = %d/%d, want %d/%d",
					capacity, i, r.Total(), r.Dropped(), len(model), len(model)-len(kept))
			}
		}
	})
}

// TestRingPushAllocatesNothing: the ring is preallocated, so pushing — while
// filling and after wrap-around — never allocates.
func TestRingPushAllocatesNothing(t *testing.T) {
	r := NewRing[record](8)
	if n := testing.AllocsPerRun(100, func() { r.Push(record{at: 1}) }); n != 0 {
		t.Fatalf("Push allocated %.1f objects per op", n)
	}
	if r.Dropped() == 0 {
		t.Fatal("the runs never wrapped the ring")
	}
}

func TestRingAppendToExtends(t *testing.T) {
	r := NewRing[int](2)
	for _, v := range []int{1, 2, 3} {
		r.Push(v)
	}
	if got := r.AppendTo([]int{0}); !slices.Equal(got, []int{0, 2, 3}) {
		t.Fatalf("AppendTo = %v, want [0 2 3]", got)
	}
}

// TestInternerOverflow: the table holds 255 names; index 255 absorbs every
// further one and reads back as "?", as does any index never handed out.
func TestInternerOverflow(t *testing.T) {
	var in Interner
	if in.Name(0) != "?" {
		t.Fatalf("empty table names index 0 %q, want ?", in.Name(0))
	}
	for i := 0; i < 300; i++ {
		s := fmt.Sprint("name", i)
		idx := in.Index(s)
		switch {
		case i < 255 && (idx != uint8(i) || in.Name(idx) != s):
			t.Fatalf("%s: index %d names %q", s, idx, in.Name(idx))
		case i >= 255 && idx != 255:
			t.Fatalf("%s past capacity got index %d, want 255", s, idx)
		}
	}
	if in.Name(255) != "?" {
		t.Fatalf("overflow index names %q, want ?", in.Name(255))
	}
	if in.Index("name7") != 7 {
		t.Fatal("a known name changed index after the table filled")
	}
	c := in.Clone()
	in.names[0] = "changed"
	if c.Name(0) != "name0" {
		t.Fatal("Clone shares the original's table")
	}
}

// TestTracerLevelTableOverflow: a tracer that has seen more distinct levels
// than its table holds still exports every event, the overflowed ones under
// level "?".
func TestTracerLevelTableOverflow(t *testing.T) {
	tr := NewTracer(512)
	for i := 0; i < 300; i++ {
		tr.Record(Event{Kind: EvUse, Level: fmt.Sprint("L", i), PageSize: fmt.Sprint(i, "KB"), At: int64(i)})
	}
	ev := tr.Events()
	if len(ev) != 300 {
		t.Fatalf("exported %d events, want 300", len(ev))
	}
	if ev[254].Level != "L254" || ev[255].Level != "?" || ev[299].Level != "?" {
		t.Fatalf("levels at 254/255/299 = %q/%q/%q, want L254/?/?", ev[254].Level, ev[255].Level, ev[299].Level)
	}
	if ev[254].PageSize != "254KB" || ev[299].PageSize != "?" {
		t.Fatalf("page sizes at 254/299 = %q/%q, want 254KB/?", ev[254].PageSize, ev[299].PageSize)
	}
}
