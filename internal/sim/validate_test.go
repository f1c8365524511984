package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

// configRules is one broken configuration per Validate rule: the mutation,
// the field the *ConfigError must name, and whether assembling the system
// without Validate panics in a constructor (the other rules reject
// meaningless values the run loop may panic on later, or enforce the
// cache-tag bound).
var configRules = []struct {
	field      string
	mutate     func(*Config)
	ctorPanics bool
}{
	{"Core.Width", func(c *Config) { c.Core.Width = 0 }, true},
	{"Core.ROBSize", func(c *Config) { c.Core.ROBSize = -1 }, true},
	{"L1I.Sets", func(c *Config) { c.L1I.Sets = 0 }, true},
	{"L1D.Ways", func(c *Config) { c.L1D.Ways = 0 }, true},
	{"L2.Ways", func(c *Config) { c.L2.Ways = 17 }, true},
	{"LLC.Ways", func(c *Config) { c.LLC.Ways = 32 }, true},
	{"LLC.MSHREntries", func(c *Config) { c.LLC.MSHREntries = 0 }, true},
	{"L1D.Latency", func(c *Config) { c.L1D.Latency = -1 }, false},
	{"MMU.L1Ways", func(c *Config) { c.MMU.L1Ways = 17 }, true},
	{"MMU.L2Entries", func(c *Config) { c.MMU.L2Entries = 1537 }, true},
	{"MMU.L1Entries", func(c *Config) { c.MMU.L1Entries = 0 }, false},
	{"MMU.L2Latency", func(c *Config) { c.MMU.L2Latency = -8 }, false},
	{"MMU.WalkCacheEntries", func(c *Config) { c.MMU.WalkCacheEntries = -1 }, true},
	{"DRAM.Channels", func(c *Config) { c.DRAM.Channels = 0 }, true},
	{"DRAM.BanksPerChan", func(c *Config) { c.DRAM.BanksPerChan = -2 }, true},
	{"DRAM.RowBytes", func(c *Config) { c.DRAM.RowBytes = 32 }, true},
	{"DRAM.TransferMTps", func(c *Config) { c.DRAM.TransferMTps = 0 }, true},
	{"DRAM.CoreGHz", func(c *Config) { c.DRAM.CoreGHz = 0 }, true},
	{"DRAM.CoreGHz", func(c *Config) { c.DRAM.CoreGHz = math.NaN() }, false},
	{"DRAM.RowMissLatency", func(c *Config) { c.DRAM.RowMissLatency = -1 }, false},
	{"Replacement", func(c *Config) { c.Replacement = 1 }, true},
	{"L1I.Replacement", func(c *Config) { c.L1I.Replacement = 1 }, true},
	{"LLC.Replacement", func(c *Config) { c.LLC.Replacement = 1 }, true},
	{"DRAM.Channels", func(c *Config) { c.DRAM.Channels = 3 }, true},
	{"DRAM.BanksPerChan", func(c *Config) { c.DRAM.BanksPerChan = 6 }, true},
	{"DRAM.RowBytes", func(c *Config) { c.DRAM.RowBytes = 192 }, true},
	{"PhysBytes", func(c *Config) { c.PhysBytes = 32 << 20 }, true},
	{"PhysBytes", func(c *Config) { c.PhysBytes = 1 << 40 }, false},
	// Geometry bounds: each of these would build, allocating up to hundreds
	// of GiB, so they are never handed to newSystem.
	{"Core.Width", func(c *Config) { c.Core.Width = maxWidth + 1 }, false},
	{"Core.ROBSize", func(c *Config) { c.Core.ROBSize = maxROBSize + 1 }, false},
	{"LLC.Sets", func(c *Config) { c.LLC.Sets = 1 << 30 }, false},
	{"L1D.Sets", func(c *Config) { c.L1D.Sets = maxSets + 1 }, false},
	{"L2.MSHREntries", func(c *Config) { c.L2.MSHREntries = maxMSHREntries + 1 }, false},
	{"MMU.L1Entries", func(c *Config) { c.MMU.L1Entries = 2 * maxTLBEntries }, false},
	{"MMU.L2Entries", func(c *Config) { c.MMU.L2Entries = maxTLBEntries + c.MMU.L2Ways }, false},
	{"MMU.WalkCacheEntries", func(c *Config) { c.MMU.WalkCacheEntries = maxWalkCacheEntries + 1 }, false},
	{"DRAM.Channels", func(c *Config) { c.DRAM.Channels = maxChannels + 1 }, false},
	{"DRAM.BanksPerChan", func(c *Config) { c.DRAM.BanksPerChan = maxBanksPerChan + 1 }, false},
}

// TestValidateAcceptsTheBounds: every geometry bound is inclusive, so the
// largest accepted machine still validates.
func TestValidateAcceptsTheBounds(t *testing.T) {
	c := DefaultConfig()
	c.Core.Width, c.Core.ROBSize = maxWidth, maxROBSize
	for _, l := range []*cache.Config{&c.L1I, &c.L1D, &c.L2, &c.LLC} {
		l.Sets, l.MSHREntries = maxSets, maxMSHREntries
	}
	c.MMU.L1Entries, c.MMU.L1Ways = maxTLBEntries, 16
	c.MMU.L2Entries, c.MMU.L2Ways = maxTLBEntries, 16
	c.MMU.WalkCacheEntries = maxWalkCacheEntries
	c.DRAM.Channels, c.DRAM.BanksPerChan = maxChannels, maxBanksPerChan
	if err := c.Validate(); err != nil {
		t.Fatalf("the largest accepted geometry fails Validate: %v", err)
	}
}

// configErrorFor extracts the *ConfigError naming field from err.
func configErrorFor(err error, field string) *ConfigError {
	for _, e := range unwrapAll(err) {
		var ce *ConfigError
		if errors.As(e, &ce) && ce.Field == field {
			return ce
		}
	}
	return nil
}

// unwrapAll flattens a joined error into its parts.
func unwrapAll(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}

// TestValidateRejectsEachRule: every broken rule yields exactly one typed
// error naming its field, both from Validate and from Run, which returns it
// without building the system (so without panicking).
func TestValidateRejectsEachRule(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig fails Validate: %v", err)
	}
	w, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	spec := PrefSpec{Base: "spp", Variant: core.PSASD}
	for _, r := range configRules {
		cfg := DefaultConfig()
		r.mutate(&cfg)
		verr := cfg.Validate()
		if n := len(unwrapAll(verr)); verr == nil || n != 1 {
			t.Errorf("%s: Validate = %v, want exactly one error", r.field, verr)
			continue
		}
		ce := configErrorFor(verr, r.field)
		if ce == nil {
			t.Errorf("%s: Validate = %v, want a *ConfigError naming the field", r.field, verr)
			continue
		}
		if msg := ce.Error(); !strings.Contains(msg, r.field) || ce.Rule == "" || !strings.Contains(msg, ce.Rule) {
			t.Errorf("%s: error text %q does not name the field and the rule", r.field, msg)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: Run panicked: %v", r.field, p)
				}
			}()
			_, err := Run(cfg, spec, w, RunOpt{Instructions: 1000, Seed: 1})
			if configErrorFor(err, r.field) == nil {
				t.Errorf("%s: Run returned %v, want the *ConfigError", r.field, err)
			}
		}()
	}
}

// TestValidateMirrorsConstructorPanics shows the constructor rules are not
// guesses: without Validate, each such configuration panics while the system
// is assembled.
func TestValidateMirrorsConstructorPanics(t *testing.T) {
	w, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range configRules {
		if !r.ctorPanics {
			continue
		}
		cfg := DefaultConfig()
		r.mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: newSystem accepted the configuration Validate rejects", r.field)
				}
			}()
			newSystem(cfg, PrefSpec{Base: "none"}, []trace.Workload{w}, 1)
		}()
	}
}

// TestValidateJoinsEveryBrokenRule: a configuration breaking several rules
// reports each of them.
func TestValidateJoinsEveryBrokenRule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2.Ways = 17
	cfg.DRAM.RowBytes = 32
	cfg.PhysBytes = 1 << 40
	err := cfg.Validate()
	for _, f := range []string{"L2.Ways", "DRAM.RowBytes", "PhysBytes"} {
		if configErrorFor(err, f) == nil {
			t.Errorf("Validate = %v, missing %s", err, f)
		}
	}
}

// TestRunMultiValidatesScaledMemory: RunMulti scales physical memory to
// 4 GiB per core before validating, so a 64-core mix (256 GiB) is rejected
// with a typed error while an 8-core mix (32 GiB) is far inside the
// 255 GiB bound.
func TestRunMultiValidatesScaledMemory(t *testing.T) {
	w, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	mix := make([]trace.Workload, 64)
	for i := range mix {
		mix[i] = w
	}
	_, err = RunMulti(DefaultConfig(), PrefSpec{Base: "none"}, mix, RunOpt{Instructions: 1000, Seed: 1})
	ce := configErrorFor(err, "PhysBytes")
	if ce == nil {
		t.Fatalf("64-core RunMulti = %v, want a PhysBytes *ConfigError", err)
	}
	cfg := DefaultConfig()
	cfg.PhysBytes = 8 * (4 << 30)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("8-core memory (32 GiB) fails Validate: %v", err)
	}
	cfg.PhysBytes = 255 << 30
	if err := cfg.Validate(); err != nil {
		t.Fatalf("255 GiB, the largest memory the cache tags allow, fails Validate: %v", err)
	}
	cfg.PhysBytes++
	if configErrorFor(cfg.Validate(), "PhysBytes") == nil {
		t.Fatal("one byte past 255 GiB passes Validate")
	}
}

// TestValidateAllocatesNothing: Run validates every simulation, so a passing
// Validate must not add to the per-run allocation count the gates pin.
func TestValidateAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	if a := testing.AllocsPerRun(100, func() { _ = cfg.Validate() }); a != 0 {
		t.Fatalf("a passing Validate allocates %v objects", a)
	}
}

// TestRunRejectsSamplesOutOfRange: RunOpt.Samples sizes the run's Frac2M
// preallocation, so a value past maxSamples is a typed error before anything
// is built rather than a makeslice panic, and the bound itself runs.
func TestRunRejectsSamplesOutOfRange(t *testing.T) {
	w, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	for _, samples := range []int{1 << 50, maxSamples + 1, -1} {
		_, err := Run(DefaultConfig(), PrefSpec{Base: "spp"}, w, RunOpt{Instructions: 5000, Seed: 1, Samples: samples})
		if configErrorFor(err, "RunOpt.Samples") == nil {
			t.Errorf("Samples %d: Run = %v, want a RunOpt.Samples *ConfigError", samples, err)
		}
	}
	res, err := Run(DefaultConfig(), PrefSpec{Base: "spp"}, w, RunOpt{Instructions: 5000, Seed: 1, Samples: maxSamples})
	if err != nil || len(res.Frac2MOverTime) == 0 {
		t.Fatalf("Samples at the bound: %d samples, %v", len(res.Frac2MOverTime), err)
	}
}
