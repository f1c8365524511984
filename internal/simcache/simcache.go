// Package simcache memoizes simulation results on disk. sim.Run is a pure
// function of (machine config, prefetch spec, workload, run options), so its
// Result can be content-addressed: the cache key is a SHA-256 over the JSON
// encoding of every input plus a schema version, and the value is the Result
// serialized as JSON. Re-running an experiment with a warm cache performs
// zero simulations; an interrupted sweep resumes from whatever finished.
//
// The store is safe for concurrent use within a process (in-flight
// computations of the same key are de-duplicated single-flight style) and
// across processes (entries are written to a temp file and renamed into
// place, so readers never observe partial writes). A corrupted or truncated
// entry is treated as a miss and removed.
//
// Invalidation: pass a different directory, delete entries, or bump
// SchemaVersion when the meaning of a Result changes (new fields derived
// differently, generator behaviour changes, etc.).
package simcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/trace"
)

// SchemaVersion is folded into every key. Bump it whenever sim.Result's
// derivation changes in a way that makes previously stored entries stale
// (e.g. a workload generator or timing-model fix that alters results without
// altering any Key input).
//
// v2: keys gained the workload ContentID (trace-file digest), closing the
// stale-replay hazard where a re-recorded trace file kept its old entry.
//
// v3: the CPU model became chunk-invariant (in-flight trace accesses and the
// current cycle's consumed retire/fetch bandwidth now persist across Run
// calls), which slightly shifts cycle counts relative to v2 entries.
const SchemaVersion = 3

// keyBlob is the canonical serialized form of everything a simulation's
// outcome depends on. Workloads are identified by catalogue name plus their
// THP policy (rendered via %#v, which covers the policy's concrete type and
// parameters); the generator code itself is versioned by SchemaVersion.
type keyBlob struct {
	Schema    int
	Config    sim.Config
	Spec      sim.PrefSpec
	Workload  string
	Suite     string
	Intensive bool
	THP       string
	// ContentID distinguishes workloads whose name does not pin their
	// contents — a replayed trace file is keyed by a digest of its bytes, so
	// re-recording the file under the same path changes the key.
	ContentID string
	Opt       sim.RunOpt
}

// Key derives the content address of one simulation.
func Key(cfg sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) string {
	b, err := json.Marshal(keyBlob{
		Schema:    SchemaVersion,
		Config:    cfg,
		Spec:      spec,
		Workload:  w.Name,
		Suite:     w.Suite,
		Intensive: w.Intensive,
		THP:       fmt.Sprintf("%#v", w.THP),
		ContentID: w.ContentID,
		Opt:       opt,
	})
	if err != nil {
		// Every field is plain data; Marshal cannot fail. Guard anyway so a
		// future non-serializable Config field fails loudly, not silently
		// with colliding keys.
		panic("simcache: key not serializable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Stats counts cache traffic since the Store was created.
type Stats struct {
	// Hits were served from disk without simulating.
	Hits uint64
	// Shared were served by waiting on another goroutine's in-flight
	// computation of the same key (no simulation, no disk read).
	Shared uint64
	// Misses executed the simulation.
	Misses uint64
	// Corrupt entries were found undecodable and discarded (each also
	// counts toward Misses once recomputed via DoContext).
	Corrupt uint64
}

// HitRate returns hits (disk + shared) over all lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Shared + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// call is one in-flight computation, shared by every goroutine that wants
// its key.
type call struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// Store is a disk-backed result cache rooted at one directory.
type Store struct {
	dir string

	mu       sync.Mutex
	inflight map[string]*call

	hits, shared, misses, corrupt atomic.Uint64
}

// DefaultDir is the store every command opens unless told otherwise: under
// the OS user cache directory, falling back to a dot directory in the
// working tree. Sharing it is what lets pexp, psim and psimd reuse each
// other's entries.
func DefaultDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "psat-repro", "simcache")
	}
	return ".simcache"
}

// New opens (creating if needed) a store rooted at dir.
func New(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("simcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	return &Store{dir: dir, inflight: map[string]*call{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Shared:  s.shared.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// path shards entries by the first byte of the key so one directory never
// holds the full sweep (a full-scale figure is tens of thousands of entries).
// Keys shorter than the shard prefix (only seen in tests) go unsharded.
func (s *Store) path(key string) string {
	if len(key) <= 2 {
		return filepath.Join(s.dir, key+".json")
	}
	return filepath.Join(s.dir, key[:2], key[2:]+".json")
}

// Get loads the entry for key, reporting whether it exists and decodes
// cleanly. Undecodable entries are removed and reported as a miss. Get does
// not touch the hit/miss counters; it is the raw lookup used by DoContext
// and by tests.
func (s *Store) Get(key string) (sim.Result, bool) { return s.get(s.path(key)) }

// get is Get on the entry path p.
func (s *Store) get(p string) (sim.Result, bool) {
	b, err := os.ReadFile(p)
	if err != nil {
		return sim.Result{}, false
	}
	var res sim.Result
	if err := json.Unmarshal(b, &res); err != nil {
		// Corrupted or truncated by a crashed writer predating atomic
		// renames, or by bit rot: recover by treating it as a miss.
		s.corrupt.Add(1)
		os.Remove(p)
		return sim.Result{}, false
	}
	return res, true
}

// GetCounted is Get plus hit accounting: a successful load increments the
// hit counter, matching what DoContext would have recorded. It exists for callers
// that probe the cache directly (the cluster layer's local fast path) rather
// than through DoContext.
func (s *Store) GetCounted(key string) (sim.Result, bool) {
	res, ok := s.Get(key)
	if ok {
		s.hits.Add(1)
	}
	return res, ok
}

// Put stores res under key atomically: the entry is written to a temp file
// in the same directory and renamed into place, so concurrent writers of the
// same key race benignly (identical content) and readers never see a partial
// entry.
func (s *Store) Put(key string, res sim.Result) error { return s.put(key, s.path(key), res) }

// put is Put to the entry path p. The shard directory is made only when
// creating the temp file finds it missing: on a warm store every shard
// exists, and a stat per entry would be wasted.
func (s *Store) put(key, p string, res sim.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("simcache: encode %s: %w", key, err)
	}
	dir := filepath.Dir(p)
	tmp, err := os.CreateTemp(dir, "put-*")
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("simcache: %w", err)
		}
		tmp, err = os.CreateTemp(dir, "put-*")
	}
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simcache: write %s: %w", key, errFirst(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simcache: %w", err)
	}
	return nil
}

func errFirst(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DoContext returns the cached result for key, or computes it with fn,
// stores it, and returns it. Concurrent calls for the same key execute fn
// once; the rest wait and share the outcome. hit reports whether the result
// was served without running fn in this call (from disk or from another
// goroutine's flight). fn receives the context of the call that actually
// executes it (the flight's owner); waiters sharing a flight
// stop waiting as soon as their own context is done. If the owner's context
// is canceled while a waiter's is still live, the waiter takes over and
// recomputes instead of inheriting a cancellation that is not its own — this
// is what makes cross-request single-flight safe in a server, where the
// first requester of a key may hit its deadline while others still want the
// result. Errors (including cancellations) are never cached.
func (s *Store) DoContext(ctx context.Context, key string, fn func(context.Context) (sim.Result, error)) (res sim.Result, hit bool, err error) {
	p := s.path(key)
	for {
		if err := ctx.Err(); err != nil {
			return sim.Result{}, false, err
		}
		if res, ok := s.get(p); ok {
			s.hits.Add(1)
			return res, true, nil
		}
		s.mu.Lock()
		if c, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return sim.Result{}, false, ctx.Err()
			}
			if c.err == nil {
				s.shared.Add(1)
				return c.res, true, nil
			}
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				continue // the owner died of its own context; try again as owner
			}
			return c.res, true, c.err
		}
		c := &call{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()

		c.res, c.err = fn(ctx)
		s.misses.Add(1)
		if c.err == nil {
			// A failed Put (full disk, read-only dir) degrades to uncached
			// operation; the computed result is still good.
			_ = s.put(key, p, c.res)
		}
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(c.done)
		return c.res, false, c.err
	}
}

// Len reports how many entries the store currently holds on disk.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
