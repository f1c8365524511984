package cache

import (
	"strings"
	"testing"
)

// TestNewRejectsNonLRUPolicy: LRU is the only replacement policy modelled,
// so any other Replacement value panics at construction, naming the cache,
// like a bad geometry, instead of silently running LRU.
func TestNewRejectsNonLRUPolicy(t *testing.T) {
	for _, p := range []ReplPolicy{1, 2, 255} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "cache c: replacement policy") {
					t.Errorf("Replacement %d: New panicked with %q, want the policy rejected", p, msg)
				}
			}()
			New(Config{Name: "c", Sets: 1, Ways: 4, Latency: 1, MSHREntries: 8, Replacement: p}, nil)
		}()
	}
}
