package fuzz

import (
	"encoding/json"
	"fmt"
	"os"
)

// Failure is a replayable seed file: the case, the single configuration
// it failed under, and the violation. Everything needed to reproduce is
// in the two structs — the data and query regenerate from Case, the
// engine setup from Config.
type Failure struct {
	Case   Case      `json:"case"`
	Config RunConfig `json:"config"`
	Err    string    `json:"error"`
}

func (f Failure) String() string {
	return fmt.Sprintf("%s | %s: %s", f.Case, f.Config.Name, f.Err)
}

// Check replays one (case, config) pair and returns the failure it
// produces now, or nil if it passes — the oracle for both shrinking and
// corpus replay.
func Check(c Case, rc RunConfig) *Failure {
	if rc.Name == ConfigCollectorMerge {
		if msg := CheckCollectorMerge(c.Seed); msg != "" {
			return &Failure{Case: c, Config: rc, Err: msg}
		}
		return nil
	}
	env, err := Build(c)
	if err != nil {
		return &Failure{Case: c, Config: rc, Err: fmt.Sprintf("build: %v", err)}
	}
	if rc.Name == ConfigInterleaved {
		_, f := runInterleaved(env)
		return f
	}
	_, f := runOne(env, rc)
	return f
}

// Shrink greedily minimizes a failing case: each pass tries every
// single-field reduction (fewer tables, shorter join chain, half the
// rows, drop grouping, drop the host variable, fresh statistics, no
// aliases, named columns instead of a star) and
// keeps the first one under which the same configuration still fails,
// until no reduction survives. The result is the smallest repro the
// greedy walk can reach, suitable for checking into the seed corpus.
func Shrink(f Failure) Failure {
	c := f.Case
	for {
		improved := false
		for _, cand := range shrinkCandidates(c) {
			if nf := Check(cand, f.Config); nf != nil {
				c, f = cand, *nf
				improved = true
				break
			}
		}
		if !improved {
			return f
		}
	}
}

// shrinkCandidates returns every one-step reduction of the case, most
// aggressive first.
func shrinkCandidates(c Case) []Case {
	var out []Case
	if c.MaxRows > 20 {
		n := c
		n.MaxRows = c.MaxRows / 2
		if n.MaxRows < 20 {
			n.MaxRows = 20
		}
		out = append(out, n)
	}
	if c.NTables > 2 {
		n := c
		n.NTables--
		if n.JoinK > n.NTables {
			n.JoinK = n.NTables
		}
		out = append(out, n)
	}
	if c.JoinK > 2 {
		n := c
		n.JoinK--
		out = append(out, n)
	}
	if c.GroupPK {
		n := c
		n.GroupPK = false
		out = append(out, n)
	}
	if c.Grouped {
		n := c
		n.Grouped = false
		n.GroupPK = false
		out = append(out, n)
	}
	if c.HostVar {
		n := c
		n.HostVar = false
		out = append(out, n)
	}
	if c.StalePct != 100 {
		n := c
		n.StalePct = 100
		out = append(out, n)
	}
	if c.Alias {
		n := c
		n.Alias = false
		out = append(out, n)
	}
	if c.Star {
		n := c
		n.Star = false
		out = append(out, n)
	}
	if c.KeyPred {
		n := c
		n.KeyPred = false
		out = append(out, n)
	}
	return out
}

// WriteSeed writes the failure as an indented JSON seed file.
func WriteSeed(path string, f Failure) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSeed loads a seed file written by WriteSeed.
func ReadSeed(path string) (Failure, error) {
	var f Failure
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
