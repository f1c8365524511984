package telemetry

// Ring is a preallocated ring keeping the newest values pushed into it, so
// a recorder holds bounded memory however long it runs. Push never
// allocates. Ring is not synchronized; concurrent users hold their own lock.
type Ring[T any] struct {
	buf   []T
	head  int // oldest value, and the next overwrite position, once full
	total uint64
}

// NewRing creates a ring keeping the newest capacity values (none when
// capacity <= 0: the ring then only counts).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, max(capacity, 0))}
}

// Push appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.total++
	switch {
	case len(r.buf) < cap(r.buf):
		r.buf = append(r.buf, v)
	case len(r.buf) > 0:
		r.buf[r.head] = v
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
	}
}

// Total returns the lifetime number of pushes, overwritten values included.
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many values wrap-around has overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// AppendTo appends the retained values to dst oldest-first.
func (r *Ring[T]) AppendTo(dst []T) []T {
	return append(append(dst, r.buf[r.head:]...), r.buf[:r.head]...)
}

// Interner maps a small vocabulary (cache level names, page sizes, span
// names) to uint8 indices, so ring records can stay pointer-free and the GC
// never scans a ring. It holds 255 names; index 255 absorbs any further
// name and reads back as "?". Interner is not synchronized.
type Interner struct {
	names []string
}

// Index returns s's index, adding s on first sight. The linear scan's first
// comparison is usually an identical string header from the same call site.
func (in *Interner) Index(s string) uint8 {
	for i, v := range in.names {
		if v == s {
			return uint8(i)
		}
	}
	if len(in.names) == 255 {
		return 255
	}
	in.names = append(in.names, s)
	return uint8(len(in.names) - 1)
}

// Name returns the name at index i, or "?" for an index never handed out.
func (in *Interner) Name(i uint8) string {
	if int(i) < len(in.names) {
		return in.names[i]
	}
	return "?"
}

// Clone returns an independent copy, to read outside the original's lock.
func (in *Interner) Clone() Interner {
	return Interner{names: append([]string(nil), in.names...)}
}
