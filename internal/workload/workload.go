// Package workload generates the operation streams of the paper's
// simulator (§4): a proportion mix of search / insert / delete operations
// whose insert keys are drawn uniformly from a key space and whose delete
// and search keys target the live key population, plus the tree
// construction phase that builds the initial B-tree with the same
// insert:delete proportion as the concurrent phase.
package workload

import (
	"fmt"

	"btreeperf/internal/btree"
	"btreeperf/internal/xrand"
)

// Op is an operation kind.
type Op int

const (
	// Search looks a key up.
	Search Op = iota
	// Insert adds a key.
	Insert
	// Delete removes a key.
	Delete
	// Scan reads a key range starting at the drawn key (range scans are
	// anchored at live keys, so they traverse populated territory).
	Scan
)

func (o Op) String() string {
	switch o {
	case Search:
		return "search"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Scan:
		return "scan"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Mix holds the operation proportions q_s, q_i, q_d, q_r (must sum
// to 1). QR — range-scan share — is this serving layer's extension of
// the paper's three-op mix; QR = 0 reproduces the paper's streams
// exactly (the generator's draw order keeps a fixed seed's
// search/insert/delete sequence byte-identical whether or not the Mix
// type knows about scans).
type Mix struct {
	QS float64 // search fraction
	QI float64 // insert fraction
	QD float64 // delete fraction
	QR float64 // range-scan fraction
}

// PaperMix is the proportion used in the paper's experiments:
// q_s=.3, q_i=.5, q_d=.2.
var PaperMix = Mix{QS: 0.3, QI: 0.5, QD: 0.2}

// Validate checks the proportions.
func (m Mix) Validate() error {
	if m.QS < 0 || m.QI < 0 || m.QD < 0 || m.QR < 0 {
		return fmt.Errorf("workload: negative proportion %+v", m)
	}
	if s := m.QS + m.QI + m.QD + m.QR; s < 0.999999 || s > 1.000001 {
		return fmt.Errorf("workload: proportions sum to %v, want 1", s)
	}
	return nil
}

// Scenario returns a named mix preset for btload's -scenario flag.
// "paper" is the paper's §4 proportion; "point" is read-heavy point
// traffic; "scan-heavy" and "scan-mixed" are the query-subsystem
// scenario families (mostly scans, and scans alongside point updates).
func Scenario(name string) (Mix, error) {
	switch name {
	case "paper":
		return PaperMix, nil
	case "point":
		return Mix{QS: 0.9, QI: 0.09, QD: 0.01}, nil
	case "read-heavy":
		return Mix{QS: 0.95, QI: 0.04, QD: 0.01}, nil
	case "insert-heavy":
		return Mix{QS: 0.1, QI: 0.8, QD: 0.1}, nil
	case "scan-heavy":
		return Mix{QS: 0.05, QI: 0.04, QD: 0.01, QR: 0.9}, nil
	case "scan-mixed":
		return Mix{QS: 0.3, QI: 0.35, QD: 0.15, QR: 0.2}, nil
	default:
		return Mix{}, fmt.Errorf("workload: unknown scenario %q (want paper, point, read-heavy, insert-heavy, scan-heavy, or scan-mixed)", name)
	}
}

// KeyPool tracks the live key population with O(1) insertion and O(1)
// uniform removal, so deletes and searches can target existing keys — the
// regime Johnson & Shasha's shape results assume.
type KeyPool struct {
	keys []int64
	pos  map[int64]int
}

// NewKeyPool returns an empty pool.
func NewKeyPool() *KeyPool {
	return &KeyPool{pos: make(map[int64]int)}
}

// Len returns the population size.
func (kp *KeyPool) Len() int { return len(kp.keys) }

// Add inserts k (a duplicate is a no-op).
func (kp *KeyPool) Add(k int64) {
	if _, ok := kp.pos[k]; ok {
		return
	}
	kp.pos[k] = len(kp.keys)
	kp.keys = append(kp.keys, k)
}

// Remove deletes k, reporting whether it was present.
func (kp *KeyPool) Remove(k int64) bool {
	i, ok := kp.pos[k]
	if !ok {
		return false
	}
	last := len(kp.keys) - 1
	kp.keys[i] = kp.keys[last]
	kp.pos[kp.keys[i]] = i
	kp.keys = kp.keys[:last]
	delete(kp.pos, k)
	return true
}

// Pick returns a uniformly random live key without removing it.
// ok is false when the pool is empty.
func (kp *KeyPool) Pick(src *xrand.Source) (k int64, ok bool) {
	if len(kp.keys) == 0 {
		return 0, false
	}
	return kp.keys[src.IntN(len(kp.keys))], true
}

// PickSkewed is Pick with a zipfian index distribution: low pool slots
// are hot with exponent skew (skew <= 0 degrades to Pick). Swap-remove
// churns the slot order over time, but the hot set stays small at any
// instant, which is what a contention knob needs.
func (kp *KeyPool) PickSkewed(src *xrand.Source, skew float64) (k int64, ok bool) {
	if len(kp.keys) == 0 {
		return 0, false
	}
	return kp.keys[src.Zipf(len(kp.keys), skew)], true
}

// Take removes and returns a uniformly random live key.
func (kp *KeyPool) Take(src *xrand.Source) (k int64, ok bool) {
	k, ok = kp.Pick(src)
	if ok {
		kp.Remove(k)
	}
	return k, ok
}

// Generator produces the concurrent-phase operation stream.
type Generator struct {
	mix      Mix
	pool     *KeyPool
	src      *xrand.Source
	keySpace int64
	skew     float64 // zipfian key skew; 0 = uniform
}

// SetSkew sets the zipfian key-skew exponent s: searches, deletes, and
// scans draw their live key zipfian over the pool, inserts draw their
// new key zipfian over [0, keySpace), so accesses concentrate on a hot
// set. s = 0 (the default) is the uniform regime the paper analyzes and
// leaves the generator's draw stream byte-identical to before the knob
// existed. Call before Split; children inherit the skew.
func (g *Generator) SetSkew(s float64) { g.skew = s }

// NewGenerator builds a generator over the given live-key pool. Insert
// keys are uniform over [0, keySpace).
func NewGenerator(mix Mix, pool *KeyPool, keySpace int64, src *xrand.Source) (*Generator, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if keySpace < 1 {
		return nil, fmt.Errorf("workload: key space %d", keySpace)
	}
	return &Generator{mix: mix, pool: pool, src: src, keySpace: keySpace}, nil
}

// Next draws the next operation and its key. Deletes remove their target
// from the pool immediately so concurrent deletes do not all chase the
// same key; inserts add theirs. When the pool is empty a drawn delete,
// search, or scan degrades to an insert. The scan band sits after
// search and delete in the draw order, so with QR = 0 a fixed seed
// produces the stream the pre-scan generator produced, byte for byte.
func (g *Generator) Next() (Op, int64) {
	u := g.src.Float64()
	switch {
	case u < g.mix.QS:
		if k, ok := g.pool.PickSkewed(g.src, g.skew); ok {
			return Search, k
		}
	case u < g.mix.QS+g.mix.QD:
		if k, ok := g.pool.PickSkewed(g.src, g.skew); ok {
			g.pool.Remove(k)
			return Delete, k
		}
	case u < g.mix.QS+g.mix.QD+g.mix.QR:
		if k, ok := g.pool.PickSkewed(g.src, g.skew); ok {
			return Scan, k
		}
	}
	var k int64
	if g.skew > 0 {
		k = int64(g.src.Zipf(int(min64(g.keySpace, 1<<31)), g.skew))
	} else {
		k = g.src.Int63n(g.keySpace)
	}
	g.pool.Add(k)
	return Insert, k
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Split returns n deterministic, mutually independent generators, so n
// concurrent consumers (e.g. load-generator connections) need not share
// one generator behind a mutex. Each child draws from its own xrand stream
// (derived from the parent's seed and the child index, so a fixed parent
// seed always reproduces the same n streams) and owns a private key pool;
// the parent's live keys are dealt round-robin across the children. The
// parent must not be used after Split.
func (g *Generator) Split(n int) []*Generator {
	if n < 1 {
		panic(fmt.Sprintf("workload: Split(%d)", n))
	}
	out := make([]*Generator, n)
	for i := range out {
		out[i] = &Generator{
			mix:      g.mix,
			pool:     NewKeyPool(),
			src:      g.src.Split(uint64(i) + 1),
			keySpace: g.keySpace,
			skew:     g.skew,
		}
	}
	for j, k := range g.pool.keys {
		out[j%n].pool.Add(k)
	}
	return out
}

// Build constructs a merge-at-empty B-tree of about target keys using the
// generator's insert:delete proportion (the paper's construction phase),
// returning the tree and the resulting live-key pool.
func Build(capacity, target int, mix Mix, keySpace int64, src *xrand.Source) (*btree.Tree, *KeyPool, error) {
	if err := mix.Validate(); err != nil {
		return nil, nil, err
	}
	if mix.QI <= mix.QD {
		return nil, nil, fmt.Errorf("workload: construction needs qi > qd to grow (qi=%v qd=%v)", mix.QI, mix.QD)
	}
	tr := btree.New(capacity, btree.MergeAtEmpty)
	pool := NewKeyPool()
	pIns := mix.QI / (mix.QI + mix.QD)
	for tr.Len() < target {
		if src.Float64() < pIns || pool.Len() == 0 {
			k := src.Int63n(keySpace)
			if tr.Insert(k, uint64(k)) {
				pool.Add(k)
			}
		} else {
			if k, ok := pool.Take(src); ok {
				tr.Delete(k)
			}
		}
	}
	return tr, pool, nil
}
