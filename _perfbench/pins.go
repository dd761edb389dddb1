package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"cmpsim/internal/core"
	"cmpsim/internal/stats"
)

// pinsJSON holds every job's expected output, recorded from the
// simulator by `go run . --write-pins pins.json` in this directory.
// Simulation is deterministic, so any difference is a wrong result.
//
//go:embed pins.json
var pinsJSON []byte

type jobPin struct {
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`
	Digest string `json:"digest"` // of the RunResult without Metrics and Profile
}

type workloadPins struct {
	Jobs    map[string]jobPin `json:"jobs"`    // by job key
	Figures map[string]string `json:"figures"` // digest of the rendered stats.Figure, by benchfig row
}

func loadPins() (map[string]workloadPins, error) {
	var p map[string]workloadPins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// resultDigest hashes everything a run reports except the optional
// interval metrics and profile, which benchmark runs never attach.
func resultDigest(r *core.RunResult) (string, error) {
	c := *r
	c.Metrics, c.Profile = nil, nil
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digest(b), nil
}

// observed computes the pins of one campaign: every successful job's
// pin, and the digest of every figure whose three jobs succeeded.
func observed(c *campaign) (workloadPins, error) {
	p := workloadPins{Jobs: map[string]jobPin{}, Figures: map[string]string{}}
	runs := map[string]map[core.Arch]*core.RunResult{}
	figs := map[string]core.CPUModel{}
	for i := range c.outs {
		o := &c.outs[i]
		if o.err != nil || o.res == nil {
			continue
		}
		d, err := resultDigest(o.res)
		if err != nil {
			return p, err
		}
		p.Jobs[o.job.key()] = jobPin{Cycles: o.res.Cycles, Insts: o.res.Instructions(), Digest: d}
		name := o.job.fig.Name
		if runs[name] == nil {
			runs[name] = map[core.Arch]*core.RunResult{}
		}
		runs[name][o.job.arch] = o.res
		figs[name] = o.job.fig.Model
	}
	for name, r := range runs {
		if len(r) == len(core.Arches()) {
			p.Figures[name] = digest([]byte(stats.BuildFigure(name, name, figs[name], r).String()))
		}
	}
	return p, nil
}

// check returns, for each job of c, whether it failed: it returned an
// error or panicked (o.err), or its result, or the figure it belongs
// to, differs from the pinned one. problems explains each failure.
func check(c *campaign, want workloadPins) (failed []bool, problems []string) {
	failed = make([]bool, len(c.outs))
	got, err := observed(c)
	if err != nil {
		for i := range failed {
			failed[i] = true
		}
		return failed, []string{err.Error()}
	}
	for i := range c.outs {
		o := &c.outs[i]
		k := o.job.key()
		if o.err != nil {
			failed[i] = true
			problems = append(problems, fmt.Sprintf("%s: %v", k, o.err))
			continue
		}
		w, ok := want.Jobs[k]
		if !ok {
			failed[i] = true
			problems = append(problems, fmt.Sprintf("%s: no pinned output", k))
			continue
		}
		if g := got.Jobs[k]; g != w {
			failed[i] = true
			problems = append(problems, fmt.Sprintf("%s: got %+v, pinned %+v", k, g, w))
			continue
		}
		fig := o.job.fig.Name
		if g, ok := got.Figures[fig]; ok && g != want.Figures[fig] {
			failed[i] = true
			problems = append(problems, fmt.Sprintf("%s: figure %s rows digest %s, pinned %s", k, fig, g, want.Figures[fig]))
		}
	}
	return failed, problems
}

// writePins runs one untraced campaign of every workload and writes the
// observed outputs to path.
func writePins(path string) error {
	all := map[string]workloadPins{}
	for _, w := range workloads {
		jobs, err := w.jobs()
		if err != nil {
			return err
		}
		c := runCampaign(w, jobs, false, nil)
		for i := range c.outs {
			if err := c.outs[i].err; err != nil {
				return fmt.Errorf("%s: %w", c.outs[i].job.key(), err)
			}
		}
		if all[w.name], err = observed(c); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
