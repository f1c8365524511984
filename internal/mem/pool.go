package mem

// RequestPool is a single-entry scratch pool for Request values. The
// simulator's access path is synchronous — Port.Access(req, at) returns
// before its caller issues another request, and no component retains *Request
// beyond the call — so every issuing site (core demand path, prefetch engine,
// page-table walker, writeback path) can reuse one per-site scratch entry and
// keep the steady-state hot path allocation-free.
//
// A pool must not be shared between sites whose requests can be live at the
// same time (e.g. a demand access and the prefetches its observer issues).
type RequestPool struct{ scratch Request }

// Get returns a zeroed *Request for the caller to fill and pass down the
// hierarchy. The pointer is valid until the pool's next Get.
func (p *RequestPool) Get() *Request {
	p.scratch = Request{}
	return &p.scratch
}

// GetDirty returns the scratch entry without zeroing it. Callers must
// overwrite it with a full composite-literal assignment (*req = Request{...}),
// which zeroes every unmentioned field itself — the result is byte-identical
// to Get plus field writes, minus the redundant clear.
func (p *RequestPool) GetDirty() *Request {
	return &p.scratch
}
