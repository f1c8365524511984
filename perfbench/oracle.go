package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/sim"
)

// expectedJSON holds the oracle digests: seed → group → simulation (or
// "render") → digest. It covers the default seed and one held-out seed;
// other seeds are checked against the run's own reference results instead.
//
//go:embed expected.json
var expectedJSON []byte

// expectedPath is where -record-expected rewrites the oracle, relative to the
// repository root the benchmark runs from.
const expectedPath = "perfbench/expected.json"

type expectedSet map[string]map[string]map[string]string

func loadExpected() expectedSet {
	e := expectedSet{}
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("perfbench: embedded expected.json: %v", err))
	}
	return e
}

func (e expectedSet) save() error {
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(b, '\n'), 0o644)
}

// digest is a short content digest of a value's JSON encoding (a full
// sim.Result or sim.MultiResult, or a rendered figure as a string).
func digest(v any) string {
	var b []byte
	if s, ok := v.(string); ok {
		b = []byte(s)
	} else {
		var err error
		if b, err = json.Marshal(v); err != nil {
			return "unencodable: " + err.Error()
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// oracle checks a group of digests. For a seed with stored digests the
// reference is the stored set; otherwise the first digest seen for each name
// in this run becomes the reference, so later passes must reproduce it.
type oracle struct {
	b      *bench
	group  string
	stored map[string]string
	seen   map[string]string
}

func (b *bench) oracle(group string) *oracle {
	seed := strconv.FormatUint(b.seed, 10)
	o := &oracle{b: b, group: group, seen: map[string]string{}}
	if b.record {
		if b.expected[seed] == nil {
			b.expected[seed] = map[string]map[string]string{}
		}
		b.expected[seed][group] = map[string]string{}
		return o
	}
	o.stored = b.expected[seed][group]
	return o
}

// check compares one digest against the reference for name.
func (o *oracle) check(name, got string) {
	if o.b.record {
		seed := strconv.FormatUint(o.b.seed, 10)
		o.b.expected[seed][o.group][name] = got
		o.b.rep.check(true, "")
		return
	}
	want, ok := o.stored[name]
	if !ok {
		if want, ok = o.seen[name]; !ok {
			o.seen[name] = got
			o.b.rep.check(true, "")
			return
		}
	}
	o.b.rep.check(got == want, "%s %s: digest %s, want %s", o.group, name, got, want)
}

// hasStored reports whether this seed's digests for the group are stored.
func (o *oracle) hasStored() bool { return len(o.stored) > 0 }

// checkStoredSeeds re-simulates jobs at each stored seed other than the
// run's own and compares them with the stored digests, so a run at any seed
// also checks the simulator against known-good results.
func (b *bench) checkStoredSeeds(group string, jobs []job, opt sim.RunOpt) {
	if b.record {
		return
	}
	for seed, groups := range b.expected {
		want := groups[group]
		if len(want) == 0 || seed == strconv.FormatUint(b.seed, 10) {
			continue
		}
		opt.Seed, _ = strconv.ParseUint(seed, 10, 64)
		for _, j := range jobs {
			res, err := sim.Run(sim.DefaultConfig(), j.spec, j.workload, opt)
			b.rep.check(err == nil && digest(res) == want[j.String()],
				"%s %s at stored seed %s: result differs from the stored digest (%v)", group, j, seed, err)
		}
	}
}
