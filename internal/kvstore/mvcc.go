// MVCC snapshot isolation (DESIGN.md §17).
//
// Writers never mutate an entry or bucket head that a published view
// can reach: every Put/Delete copies the entries between the bucket
// head and the affected entry (the chain prefix), links the copies to
// the untouched suffix, and atomically publishes a fresh immutable
// shardRoot. Readers pin the global epoch, load roots with plain
// atomic loads, and traverse with zero lock acquisitions; every entry
// access still goes through the hooks.Runtime bounds checks, so SPP
// verdicts on the snapshot path are identical to a locked read.
//
// Superseded versions are retired, not freed: the transaction that
// publishes the new persistent bucket head also appends a retire node
// (a persistent list of the superseded oids) to the shard's retire
// chain, so the supersede and the retire are atomic and a crash
// between retire and reclaim cannot leak. A batch becomes reclaimable
// once every pinned epoch is newer than the batch's epoch (under
// NoMVCC readers hold the shard read lock instead of pinning, so a
// batch is reclaimable as soon as it retires); open() drains every
// chain before rebuilding the roots, because no volatile snapshot
// survives a restart.
package kvstore

import (
	"errors"

	"repro/internal/pmemobj"
	"repro/internal/trace"
)

// headPageBits sizes the bucket-head pages of a shardRoot: a COW
// publish copies the page directory plus one 64-head page instead of
// the whole head array, so publication stays O(nbuckets/64 + 64).
const (
	headPageBits = 6
	headPageSize = 1 << headPageBits
	headPageMask = headPageSize - 1
)

type headPage [headPageSize]pmemobj.Oid

// shardRoot is one published immutable view of a shard: the bucket
// geometry, the live-key count, and every bucket's chain head. Once
// stored in shard.root a shardRoot is never mutated.
type shardRoot struct {
	nbuckets uint64
	count    uint64
	pages    []*headPage
}

func newShardRoot(nbuckets, count uint64) *shardRoot {
	r := &shardRoot{nbuckets: nbuckets, count: count}
	r.pages = make([]*headPage, (nbuckets+headPageMask)>>headPageBits)
	for i := range r.pages {
		r.pages[i] = new(headPage)
	}
	return r
}

func (r *shardRoot) head(b uint64) pmemobj.Oid {
	return r.pages[b>>headPageBits][b&headPageMask]
}

// setHead mutates in place — only valid while building a root that has
// not been published yet.
func (r *shardRoot) setHead(b uint64, h pmemobj.Oid) {
	r.pages[b>>headPageBits][b&headPageMask] = h
}

// withHead returns a copy of r with bucket b's head replaced and the
// count adjusted, sharing every untouched page with r.
func (r *shardRoot) withHead(b uint64, h pmemobj.Oid, delta int64) *shardRoot {
	nr := &shardRoot{
		nbuckets: r.nbuckets,
		count:    uint64(int64(r.count) + delta),
		pages:    append([]*headPage(nil), r.pages...),
	}
	pg := *r.pages[b>>headPageBits]
	pg[b&headPageMask] = h
	nr.pages[b>>headPageBits] = &pg
	return nr
}

// Retire-node layout: {next oid, count u64, oids[count]}. Nodes cap at
// retireNodeMax oids so a single allocation stays far below the SPP
// maximum object size even when a whole-shard rehash retires every
// entry at once.
const (
	rnNext        = 0
	retireNodeMax = 512
)

func (s *Store) rnCountOff() int64    { return s.oidSize }
func (s *Store) rnOidOff(i int) int64 { return s.oidSize + 8 + int64(i)*s.oidSize }
func (s *Store) retireNodeSize(n int) uint64 {
	return uint64(s.oidSize) + 8 + uint64(n)*uint64(s.oidSize)
}

// retireBatch is one persistent retire node queued for reclamation:
// the epoch at which its versions were superseded, and the node oid.
type retireBatch struct {
	epoch uint64
	node  pmemobj.Oid
}

// pin registers a reader at the current epoch and returns it. The
// minPin store happens before the caller's root loads; writers publish
// the new root before reading minPin. With sequentially consistent
// atomics a writer therefore either observes the pin (and keeps the
// batch) or the reader observes the newer root (and never references
// the batch) — the classic store/load ordering argument.
func (s *Store) pin() uint64 {
	s.pinMu.Lock()
	e := s.epoch.Load()
	s.pins[e]++
	if e < s.minPin.Load() {
		s.minPin.Store(e)
	}
	s.pinMu.Unlock()
	return e
}

// unpin drops one pin on e and reports whether no pin remains.
func (s *Store) unpin(e uint64) bool {
	s.pinMu.Lock()
	if s.pins[e]--; s.pins[e] <= 0 {
		delete(s.pins, e)
	}
	min := ^uint64(0)
	for p := range s.pins {
		if p < min {
			min = p
		}
	}
	s.minPin.Store(min)
	none := len(s.pins) == 0
	s.pinMu.Unlock()
	return none
}

// getAt runs Get against one immutable root. Every entry access goes
// through the instrumented accessor, so bounds and tag checks fire on
// every read path.
func (s *Store) getAt(c *ctx, root *shardRoot, k slot, key []byte) ([]byte, bool, error) {
	entry := root.head(k.bucket(root.nbuckets))
	for !entry.IsNull() && c.Err() == nil {
		ep := c.Direct(entry)
		if s.keyEqual(c, ep, key) {
			vlen := c.Load(ep, enVLen)
			val := c.LoadBytes(ep, s.entryDataOff()+int64(len(key)), vlen)
			if c.Err() != nil {
				break
			}
			return val, true, c.Take()
		}
		entry = c.LoadOid(ep, enNext)
	}
	return nil, false, c.Take()
}

// errReleased guards use of a snapshot after Release.
var errReleased = errors.New("kvstore: snapshot used after Release")

// Snap is a pinned immutable view of the store: Get, Scan and Count
// run against the captured roots with zero lock acquisitions while
// writers keep publishing new versions. Each shard is frozen at its
// capture instant (per-shard snapshot consistency). A Snap is bound to
// one goroutine and must end in Release.
type Snap struct {
	s        *Store
	epoch    uint64
	roots    []*shardRoot
	pinned   bool
	released bool
}

// Snapshot pins the current epoch and captures every shard's published
// root. Under NoMVCC the returned Snap pins nothing and falls back to
// the Store's read-locked Get and Scan on the latest roots — the
// ablation baseline — so callers need no mode branch.
func (s *Store) Snapshot() *Snap {
	sn := &Snap{s: s}
	if !s.mvcc {
		return sn
	}
	sn.pinned = true
	sn.epoch = s.pin()
	sn.roots = make([]*shardRoot, len(s.shards))
	for i := range s.shards {
		sn.roots[i] = s.shards[i].root.Load()
	}
	return sn
}

// Get returns the value stored under key in the snapshot's view.
func (sn *Snap) Get(key []byte) ([]byte, bool, error) {
	if !sn.pinned {
		return sn.s.Get(key)
	}
	if sn.released {
		return nil, false, errReleased
	}
	k := sn.s.slotOf(key)
	c := newCtx(sn.s.rt)
	return sn.s.getAt(c, sn.roots[k.shard], k, key)
}

// Count returns the number of keys in the snapshot's view.
func (sn *Snap) Count() (uint64, error) {
	if !sn.pinned {
		return sn.s.Count()
	}
	if sn.released {
		return 0, errReleased
	}
	var total uint64
	for _, r := range sn.roots {
		total += r.count
	}
	return total, nil
}

// Release unpins the snapshot's epoch, making the versions it held
// eligible for reclamation. The freeing itself stays off the read
// path: writers drain their shard's eligible batches after each
// mutation (and open() drains everything), so a releasing reader never
// pays for persistent-transaction frees or queues on shard locks.
// Call Store.Reclaim for an explicit synchronous sweep. Idempotent.
func (sn *Snap) Release() error {
	if !sn.pinned || sn.released {
		sn.released = true
		return nil
	}
	sn.released = true
	sn.s.unpin(sn.epoch)
	return nil
}

// findChain walks bucket b of root for key, returning the entries
// before the match (the COW prefix, head first), the matching entry
// (null when absent), and the chain following the match.
func (s *Store) findChain(c *ctx, root *shardRoot, b uint64, key []byte) (prefix []pmemobj.Oid, match, rest pmemobj.Oid) {
	entry := root.head(b)
	for !entry.IsNull() && c.Err() == nil {
		ep := c.Direct(entry)
		if s.keyEqual(c, ep, key) {
			return prefix, entry, c.LoadOid(ep, enNext)
		}
		prefix = append(prefix, entry)
		entry = c.LoadOid(ep, enNext)
	}
	return prefix, pmemobj.OidNull, pmemobj.OidNull
}

// newEntry allocates and fills an entry inside tx.
func (s *Store) newEntry(c *ctx, tx *pmemobj.Tx, key, value []byte, next pmemobj.Oid) pmemobj.Oid {
	fresh, err := c.RT.TxAlloc(tx, s.entrySize(len(key), len(value)))
	if err != nil {
		c.Fail(err)
		return pmemobj.OidNull
	}
	fp := c.Direct(fresh)
	c.Store(fp, enKLen, uint64(len(key)))
	c.Store(fp, enVLen, uint64(len(value)))
	c.StoreOid(fp, enNext, next)
	c.StoreBytes(fp, s.entryDataOff(), key)
	c.StoreBytes(fp, s.entryDataOff()+int64(len(key)), value)
	return fresh
}

// copyEntry clones one entry with a new next pointer.
func (s *Store) copyEntry(c *ctx, tx *pmemobj.Tx, entry, next pmemobj.Oid) pmemobj.Oid {
	ep := c.Direct(entry)
	klen := c.Load(ep, enKLen)
	vlen := c.Load(ep, enVLen)
	data := c.LoadBytes(ep, s.entryDataOff(), klen+vlen)
	if c.Err() != nil {
		return pmemobj.OidNull
	}
	fresh, err := c.RT.TxAlloc(tx, uint64(s.entryDataOff())+klen+vlen)
	if err != nil {
		c.Fail(err)
		return pmemobj.OidNull
	}
	fp := c.Direct(fresh)
	c.Store(fp, enKLen, klen)
	c.Store(fp, enVLen, vlen)
	c.StoreOid(fp, enNext, next)
	c.StoreBytes(fp, s.entryDataOff(), data)
	return fresh
}

// copyChain rebuilds prefix (given head first) in front of tail and
// returns the new head.
func (s *Store) copyChain(c *ctx, tx *pmemobj.Tx, prefix []pmemobj.Oid, tail pmemobj.Oid) pmemobj.Oid {
	head := tail
	for i := len(prefix) - 1; i >= 0 && c.Err() == nil; i-- {
		head = s.copyEntry(c, tx, prefix[i], head)
	}
	return head
}

// appendRetire persists the superseded oids as retire nodes linked at
// the tail of the shard's chain (the oldest node stays at the head,
// where reclaim unlinks in O(1)). Runs in the caller's transaction so
// the retire is atomic with the supersede; returns the new nodes,
// oldest first. The volatile tail is the caller's to update after the
// commit succeeds.
func (s *Store) appendRetire(c *ctx, tx *pmemobj.Tx, sh *shard, retired []pmemobj.Oid) []pmemobj.Oid {
	if len(retired) == 0 || c.Err() != nil {
		return nil
	}
	var nodes []pmemobj.Oid
	tail := sh.retireTail
	for start := 0; start < len(retired); start += retireNodeMax {
		chunk := retired[start:min(start+retireNodeMax, len(retired))]
		node, err := c.RT.TxAlloc(tx, s.retireNodeSize(len(chunk)))
		if err != nil {
			c.Fail(err)
			return nil
		}
		np := c.Direct(node)
		c.Store(np, s.rnCountOff(), uint64(len(chunk)))
		for i, oid := range chunk {
			c.StoreOid(np, s.rnOidOff(i), oid)
		}
		if tail.IsNull() {
			c.SnapshotField(tx, sh.hdr, s.shRetireOff(), uint64(s.oidSize))
			c.StoreOid(c.Direct(sh.hdr), s.shRetireOff(), node)
		} else {
			c.SnapshotField(tx, tail, rnNext, uint64(s.oidSize))
			c.StoreOid(c.Direct(tail), rnNext, node)
		}
		tail = node
		nodes = append(nodes, node)
	}
	return nodes
}

// persistPublish writes the durable side of one COW mutation — the new
// bucket head, the updated count, and the retire nodes for superseded
// versions — all in the caller's transaction.
func (s *Store) persistPublish(c *ctx, tx *pmemobj.Tx, sh *shard, b uint64, head pmemobj.Oid, delta int64, retired []pmemobj.Oid) []pmemobj.Oid {
	if c.Err() != nil {
		return nil
	}
	hp := c.Direct(sh.hdr)
	buckets := c.LoadOid(hp, shBuckets)
	c.SnapshotField(tx, buckets, int64(b)*s.oidSize, uint64(s.oidSize))
	c.StoreOid(c.Direct(buckets), int64(b)*s.oidSize, head)
	if delta != 0 {
		c.SnapshotField(tx, sh.hdr, shCount, 8)
		hp = c.Direct(sh.hdr)
		c.Store(hp, shCount, uint64(int64(c.Load(hp, shCount))+delta))
	}
	return s.appendRetire(c, tx, sh, retired)
}

// publish swaps in the new immutable root and queues the retire nodes
// under the current epoch, then advances it. Caller holds sh.mu and
// has committed the matching persistent state. The root store precedes
// the epoch bookkeeping; see pin for the ordering argument.
func (s *Store) publish(sh *shard, root *shardRoot, nodes []pmemobj.Oid) {
	sh.root.Store(root)
	if len(nodes) > 0 {
		e := s.epoch.Load()
		for _, n := range nodes {
			sh.retired = append(sh.retired, retireBatch{epoch: e, node: n})
		}
		sh.retireTail = nodes[len(nodes)-1]
	}
	s.epoch.Add(1)
}

// drainShard reclaims the shard's leading retire batches whose epoch
// every pinned snapshot has moved past. Caller holds sh.mu. One
// transaction per node keeps reclaim crash-atomic: a batch is either
// fully freed and unlinked or still wholly on the chain.
func (s *Store) drainShard(sh *shard, c *ctx, tr *trace.Req) error {
	min := s.minPin.Load()
	if len(sh.retired) == 0 || sh.retired[0].epoch >= min {
		return nil
	}
	span := tr.Span(trace.PhaseMaint)
	defer span.End()
	for len(sh.retired) > 0 && sh.retired[0].epoch < min {
		if err := s.freeOldestNode(sh, c, tr); err != nil {
			return err
		}
		sh.retired = sh.retired[1:]
	}
	if len(sh.retired) == 0 {
		sh.retireTail = pmemobj.OidNull
	}
	return nil
}

// freeOldestNode frees every version listed by the chain-head retire
// node, unlinks it, and frees the node itself, in one transaction.
func (s *Store) freeOldestNode(sh *shard, c *ctx, tr *trace.Req) error {
	c.Trace = tr
	return c.Run(func(tx *pmemobj.Tx) {
		node := c.LoadOid(c.Direct(sh.hdr), s.shRetireOff())
		if c.Err() != nil || node.IsNull() {
			return
		}
		np := c.Direct(node)
		n := c.Load(np, s.rnCountOff())
		for i := uint64(0); i < n && c.Err() == nil; i++ {
			oid := c.LoadOid(np, s.rnOidOff(int(i)))
			if err := c.RT.TxFree(tx, oid); err != nil {
				c.Fail(err)
				return
			}
		}
		next := c.LoadOid(np, rnNext)
		c.SnapshotField(tx, sh.hdr, s.shRetireOff(), uint64(s.oidSize))
		c.StoreOid(c.Direct(sh.hdr), s.shRetireOff(), next)
		if err := c.RT.TxFree(tx, node); err != nil {
			c.Fail(err)
		}
	})
}

// drainChain frees every retire node on a shard's persistent chain —
// crash cleanup at open, where no snapshot can reference the
// superseded versions.
func (s *Store) drainChain(sh *shard) error {
	c := newCtx(s.rt)
	for {
		head := c.LoadOid(c.Direct(sh.hdr), s.shRetireOff())
		if err := c.Take(); err != nil {
			return err
		}
		if head.IsNull() {
			return nil
		}
		if err := s.freeOldestNode(sh, c, nil); err != nil {
			return err
		}
	}
}

// loadRoot builds a volatile shard root from the persistent shard
// state. Caller must exclude writers.
func (s *Store) loadRoot(c *ctx, sh *shard) (*shardRoot, error) {
	hp := c.Direct(sh.hdr)
	n := c.Load(hp, shNBuckets)
	count := c.Load(hp, shCount)
	buckets := c.LoadOid(hp, shBuckets)
	if err := c.Take(); err != nil {
		return nil, err
	}
	r := newShardRoot(n, count)
	bp := c.Direct(buckets)
	for b := uint64(0); b < n; b++ {
		r.setHead(b, c.LoadOid(bp, int64(b)*s.oidSize))
	}
	return r, c.Take()
}

// Reclaim frees every retire batch no pinned snapshot can reference.
// Writers drain opportunistically after each mutation; Reclaim is the
// explicit synchronous sweep for quiescent stores (a test asserting
// pool occupancy, or a caller that just released the last snapshot and
// wants the space back now). Under NoMVCC nothing is ever pinned, so
// writers have already freed every batch and the sweep finds none.
func (s *Store) Reclaim() error {
	c := newCtx(s.rt)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := s.drainShard(sh, c, nil)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
