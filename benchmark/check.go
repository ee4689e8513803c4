package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// expectedJSON records, per workload and seed, the digests of the
// simulated result rows passes must reproduce: one per pass position
// in a set-up cycle (see checker).
//
//go:embed expected.json
var expectedJSON []byte

// expected is expectedJSON decoded: workload → seed → digests (SHA-256,
// hex), indexed by pass position.
type expected map[string]map[string][]string

func loadExpected() (expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// checker holds the digests the result rows of a workload's passes must
// match, indexed by the pass's position since its instance was set up:
// a pass at position i repeats the simulated work of every other pass
// at position i, because each set-up starts the simulation afresh from
// the seed. At a seed expected.json lists, the recorded digests are
// the reference; at any other seed, the first pass at each position
// in the process is.
type checker struct {
	want     []string
	recorded bool
}

func newChecker(exp expected, workload string, seed uint64) *checker {
	want, ok := exp[workload][fmt.Sprint(seed)]
	return &checker{want: want, recorded: ok}
}

// checkers caches one checker per workload and seed, so every instance
// a process sets up checks against the same reference.
var checkers = map[string]*checker{}

// checkerFor returns the process's checker for workload at seed.
func checkerFor(workload string, seed uint64) (*checker, error) {
	key := fmt.Sprintf("%s/%d", workload, seed)
	if c := checkers[key]; c != nil {
		return c, nil
	}
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	c := newChecker(exp, workload, seed)
	checkers[key] = c
	return c, nil
}

// check digests the rows of the pass at position pos and reports the
// digest, the one it must equal ("" for none), and whether they match.
func (c *checker) check(pos int, rows string) (got, want string, ok bool) {
	sum := sha256.Sum256([]byte(rows))
	got = hex.EncodeToString(sum[:])
	if !c.recorded && pos == len(c.want) {
		c.want = append(c.want, got)
	}
	if pos < len(c.want) {
		want = c.want[pos]
	}
	return got, want, got == want
}
