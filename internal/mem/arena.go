package mem

// RequestArena is a per-simulation scratch arena for page-walk requests. The
// walker's references are issued strictly one at a time (each Access completes
// before the next reference is formed), but a single translation can emit a
// burst of them — up to four levels for the demand walk plus the background
// walks of the TLB prefetcher — so the arena hands out slots from a fixed ring
// sized to cover the longest burst, recycling the oldest slot once the ring
// wraps. One arena is shared by every MMU of a simulated system: walker
// scratch is per-simulation state, not per-core, exactly like the allocator
// the walks ultimately describe.
type RequestArena struct {
	ring []Request
	next int
}

// walkBurst bounds the number of walker references that can be formed from a
// single Translate call: a 4-level demand walk plus two background
// TLB-prefetch walks of up to 4 references each.
const walkBurst = 16

// NewRequestArena creates an arena with capacity for n simultaneous scratch
// requests; n < walkBurst is raised to walkBurst.
func NewRequestArena(n int) *RequestArena {
	if n < walkBurst {
		n = walkBurst
	}
	return &RequestArena{ring: make([]Request, n)}
}

// Get returns a zeroed *Request valid until the ring wraps back around to its
// slot (at least len(ring)-1 Gets later).
func (a *RequestArena) Get() *Request {
	if a.next == len(a.ring) {
		a.next = 0
	}
	r := &a.ring[a.next]
	a.next++
	*r = Request{}
	return r
}
