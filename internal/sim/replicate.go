package sim

import (
	"fmt"
	"sync"

	"btreeperf/internal/stats"
)

// Replicated aggregates independent runs of the same configuration under
// different seeds (the paper runs 5 seeds per parameter setting).
type Replicated struct {
	Results []*Result

	RespSearch stats.Summary // across-seed distribution of per-run means
	RespInsert stats.Summary
	RespDelete stats.Summary
	RootRhoW   stats.Summary
	Unstable   bool // true if any replication exceeded its operation space
}

// RespMean returns the mix-weighted mean response across replications.
func (r *Replicated) RespMean() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	m := r.Results[0].Config.Mix
	return m.QS*r.RespSearch.Mean + m.QI*r.RespInsert.Mean + m.QD*r.RespDelete.Mean
}

// RunSeeds executes cfg once per seed and aggregates. Replications run
// concurrently, at most GOMAXPROCS at once across the process; each is
// fully independent — own seed, tree and DES environment — and the
// reduction below consumes results in seed order, so the aggregate is
// byte-identical at any core count.
func RunSeeds(cfg Config, seeds []uint64) (*Replicated, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: no seeds")
	}
	progQueued.Add(int64(len(seeds)))
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i := range seeds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acquireSlot()
			defer releaseSlot()
			c := cfg
			c.Seed = seeds[i]
			results[i], errs[i] = Run(c)
			progDone.Add(1)
			if results[i] != nil {
				progOps.Add(int64(results[i].Completed))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &Replicated{}
	var search, insert, del, rho []float64
	for _, res := range results {
		rep.Results = append(rep.Results, res)
		rep.Unstable = rep.Unstable || res.Unstable
		search = append(search, res.RespSearch.Mean)
		insert = append(insert, res.RespInsert.Mean)
		del = append(del, res.RespDelete.Mean)
		rho = append(rho, res.RootRhoW)
	}
	rep.RespSearch = stats.Summarize(search)
	rep.RespInsert = stats.Summarize(insert)
	rep.RespDelete = stats.Summarize(del)
	rep.RootRhoW = stats.Summarize(rho)
	return rep, nil
}

// DefaultSeeds returns n sequential seeds starting at 1.
func DefaultSeeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}
