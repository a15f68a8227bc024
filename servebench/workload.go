package main

import (
	"fmt"
	"math/rand/v2"
)

// opKind is one client operation type.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	numOps
)

var opNames = [numOps]string{"get", "put", "scan"}

// scanLen is both the width of a scan's [lo, hi) key range and its
// limit: every key is preloaded and none is deleted, so a correct scan
// returns exactly scanLen pairs.
const scanLen = 100

// role is one connection's op mix, as fractions summing to 1.
type role struct{ get, put, scan float64 }

// workload is one traffic mix over two closed-loop connections.
type workload struct {
	name  string
	keys  int
	roles [2]role
	// zipf draws keys Zipf-distributed (s = zipfS) over a seeded
	// permutation of the key space; otherwise uniformly.
	zipf bool
	// warm is the warm-up length in ops per connection; warmScan in
	// scans for a connection that only scans.
	warm, warmScan int
}

const zipfS = 1.1

var workloads = []workload{
	{name: "kv-update", keys: 100_000, roles: [2]role{{get: 0.1, put: 0.9}, {get: 0.1, put: 0.9}}, warm: 3000},
	{name: "kv-read", keys: 100_000, roles: [2]role{{get: 0.95, put: 0.05}, {get: 0.95, put: 0.05}}, zipf: true, warm: 3000},
	{name: "kv-scan", keys: 20_000, roles: [2]role{{scan: 1}, {put: 1}}, warm: 3000, warmScan: 30},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// hasOp reports whether any connection of the workload issues op.
func (w workload) hasOp(op opKind) bool {
	for _, r := range w.roles {
		if [numOps]float64{r.get, r.put, r.scan}[op] > 0 {
			return true
		}
	}
	return false
}

// warmOps is connection c's warm-up length.
func (w workload) warmOps(c int) int {
	if w.roles[c].scan == 1 {
		return w.warmScan
	}
	return w.warm
}

// gen draws connection c's operations. Puts land only on keys the
// connection owns.
type gen struct {
	c    int
	keys int
	role role
	r    *rand.Rand
	z    *rand.Zipf
	perm []int32
}

func newGen(w workload, c int, seed uint64, perm []int32) *gen {
	g := &gen{c: c, keys: w.keys, role: w.roles[c], r: rand.New(rand.NewPCG(seed, uint64(c)+1))}
	if w.zipf {
		g.z = rand.NewZipf(g.r, zipfS, 1, uint64(w.keys-1))
		g.perm = perm
	}
	return g
}

// keyPerm is the permutation that spreads Zipf ranks over the key
// space, so the hottest keys are not neighbours. It is part of the
// workload, not of the seed: which keys are hot decides how long the
// chains are that their puts copy, and the seed should vary only the
// order of operations.
func keyPerm(keys int) []int32 {
	r := rand.New(rand.NewPCG(0x5eed, 0x5eed))
	p := make([]int32, keys)
	for i := range p {
		p[i] = int32(i)
	}
	r.Shuffle(keys, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func (g *gen) key() int {
	if g.z != nil {
		return int(g.perm[g.z.Uint64()])
	}
	return g.r.IntN(g.keys)
}

// next returns the next op and its key index (a scan's lower bound).
func (g *gen) next() (opKind, int) {
	x := g.r.Float64()
	switch {
	case x < g.role.scan:
		return opScan, g.r.IntN(g.keys - scanLen)
	case x < g.role.scan+g.role.put:
		k := g.key()&^1 | g.c
		if k >= g.keys {
			k -= 2
		}
		return opPut, k
	default:
		return opGet, g.key()
	}
}
