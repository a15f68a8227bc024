// Package kvstore is a concurrent persistent key-value store modeled
// on pmemkv's cmap engine (the non-experimental concurrent engine used
// in §VI-B): a sharded persistent hash map over libpmemobj, with
// volatile per-shard locks rebuilt on open and all persistent updates
// running inside transactions.
//
// Every write copies on write (DESIGN.md §17): Put, Delete and rehash
// copy the chains they touch and publish immutable per-shard roots,
// and superseded versions are reclaimed through persistent retire
// chains once no pinned reader can reach them. By default reads run
// with MVCC snapshot isolation: they pin an epoch and traverse the
// published root with no locks. The NoMVCC knob changes reads only,
// as the ablation baseline: Get and Scan take the shard's read lock
// and walk the latest root, and snapshots pin nothing, so writers free
// superseded versions right after each write.
//
// A key's shard and bucket come from disjoint parts of its FNV-1a
// hash h: the shard is h mod nshards and the bucket, in a shard of
// nbuckets buckets, is (h / nshards) mod nbuckets (slotOf). Taking
// both from the same low bits would confine each shard's keys to
// nbuckets/nshards of its buckets and let chains grow without bound.
// Bucket placement is part of the persistent format, so the root's
// nshards word carries a layout version in its high 32 bits; Open
// refuses an image whose version is absent or unknown, and validates
// the shard directory and every shard header against the objects that
// hold them before it reads or writes anything else.
//
// Like every application in this repository, all PM accesses go
// through the hooks.Runtime instrumentation surface, so the store runs
// unmodified under native PMDK, SPP, SafePM and memcheck.
package kvstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/hooks"
	"repro/internal/pmaccess"
	"repro/internal/pmemobj"
	"repro/internal/trace"
)

// Store is an open KV store.
type Store struct {
	rt      hooks.Runtime
	pool    *pmemobj.Pool
	oidSize int64
	shards  []shard
	dir     pmemobj.Oid // shard directory: nshards embedded oids

	// mvcc selects the read policy (lock-free pinned reads, or reads
	// under the shard read lock). The rest is the version state: the
	// global epoch, the pinned-epoch refcounts gating reclamation, and
	// minPin caching the smallest pinned epoch (^0 when none) so
	// writers check reclaim eligibility with one atomic load.
	mvcc   bool
	epoch  atomic.Uint64
	pinMu  sync.Mutex
	pins   map[uint64]int
	minPin atomic.Uint64
}

type shard struct {
	mu  sync.RWMutex
	hdr pmemobj.Oid

	// root is the published immutable view: writers swap in a fresh
	// shardRoot per mutation, readers load it (lock-free under MVCC).
	root atomic.Pointer[shardRoot]
	// retired queues this shard's superseded-version batches, oldest
	// first, each backed by a persistent retire node; retireTail is
	// the last node of the persistent chain. Both guarded by mu.
	retired    []retireBatch
	retireTail pmemobj.Oid
}

// Shard header fields: {count u64, nbuckets u64, buckets oid,
// retire oid} — retire heads the persistent retire-node chain (its
// offset depends on the oid width, see shRetireOff).
const (
	shCount    = 0
	shNBuckets = 8
	shBuckets  = 16

	// Entry fields: {klen u64, vlen u64, next oid, key..., value...}.
	enKLen = 0
	enVLen = 8
	enNext = 16

	// Root layout: {layout version u32 | nshards u32, dir oid}. The
	// version sits in the high half of the nshards word so the root
	// keeps its size; images written before it existed read as 0.
	layoutVersion  = 1
	maxShards      = 1<<32 - 1
	defaultShards  = 64
	initialBuckets = 64
)

// ErrLayoutVersion reports a store image written with a different
// bucket placement (or before the layout version existed); it is not
// migrated, so reading it would silently miss keys.
var ErrLayoutVersion = errors.New("kvstore: unsupported store layout version")

// ErrCorruptStore reports a store root or shard header that does not
// fit the objects that hold it.
var ErrCorruptStore = errors.New("kvstore: corrupt store image")

func (s *Store) shardHdrSize() uint64 { return 16 + 2*uint64(s.oidSize) }
func (s *Store) shRetireOff() int64   { return shBuckets + s.oidSize }
func (s *Store) entryDataOff() int64  { return enNext + s.oidSize }
func (s *Store) entrySize(klen, vlen int) uint64 {
	return uint64(s.entryDataOff()) + uint64(klen) + uint64(vlen)
}

// Option configures Open. The zero configuration opens (or creates)
// the store with defaults, so Open(rt) needs no options.
type Option func(*config)

type config struct {
	shards uint64
}

// WithShards sets the shard count for a store created by this Open
// (0 means the default). The count is persisted at creation; reopening
// an existing store always uses its stored count.
func WithShards(n uint64) Option {
	return func(c *config) { c.shards = n }
}

// Open opens (or creates) the store in the runtime's pool.
func Open(rt hooks.Runtime, opts ...Option) (*Store, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return open(rt, c)
}

func open(rt hooks.Runtime, cfg config) (*Store, error) {
	shards := cfg.shards
	if shards == 0 {
		shards = defaultShards
	}
	if shards > maxShards {
		return nil, fmt.Errorf("kvstore: %d shards exceed the maximum %d", shards, uint64(maxShards))
	}
	pool := rt.Pool()
	s := &Store{rt: rt, pool: pool, oidSize: int64(pool.OidPersistedSize())}
	s.mvcc = pool.MVCC()
	s.pins = make(map[uint64]int)
	s.minPin.Store(^uint64(0))
	root, err := rt.Root(8 + uint64(s.oidSize))
	if err != nil {
		return nil, err
	}
	c := newCtx(rt)
	word := c.Load(c.Direct(root), 0)
	if err := c.Take(); err != nil {
		return nil, err
	}
	if word == 0 {
		if err := s.initialize(root, shards); err != nil {
			return nil, err
		}
		word = layoutVersion<<32 | shards
	}
	if v := word >> 32; v != layoutVersion {
		return nil, fmt.Errorf("%w: image has version %d (0: written before versions existed), this build reads %d; re-create the store", ErrLayoutVersion, v, layoutVersion)
	}
	// Rebuild the volatile shard table, checking every persisted count
	// against the object that holds it before anything is trusted or
	// written.
	dir := c.LoadOid(c.Direct(root), 8)
	if err := c.Take(); err != nil {
		return nil, err
	}
	nshards := word & maxShards
	if err := s.fits("shard directory", dir, nshards, uint64(s.oidSize)); err != nil {
		return nil, err
	}
	s.dir = dir
	dp := c.Direct(dir)
	s.shards = make([]shard, nshards)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.hdr = c.LoadOid(dp, int64(i)*s.oidSize)
		if err := c.Take(); err != nil {
			return nil, err
		}
		if err := s.fits("shard header", sh.hdr, 1, s.shardHdrSize()); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		hp := c.Direct(sh.hdr)
		n := c.Load(hp, shNBuckets)
		buckets := c.LoadOid(hp, shBuckets)
		if err := c.Take(); err != nil {
			return nil, err
		}
		if err := s.fits("bucket array", buckets, n, uint64(s.oidSize)); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// Crash cleanup: retire nodes left on a chain list versions no
	// bucket reaches (the supersede and the retire commit atomically),
	// and no volatile snapshot survives a restart, so every chain
	// drains before the store serves.
	for i := range s.shards {
		sh := &s.shards[i]
		if err := s.drainChain(sh); err != nil {
			return nil, err
		}
		r, err := s.loadRoot(c, sh)
		if err != nil {
			return nil, err
		}
		sh.root.Store(r)
	}
	return s, nil
}

// fits checks that a persisted count n of elemSize-byte elements is
// non-zero and fits the live allocation oid, so a corrupt count can
// neither index past the object nor size a huge volatile table.
func (s *Store) fits(what string, oid pmemobj.Oid, n, elemSize uint64) error {
	if n == 0 {
		return fmt.Errorf("%w: %s count is 0", ErrCorruptStore, what)
	}
	usable, err := s.rt.UsableSize(oid)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptStore, what, err)
	}
	if n > usable/elemSize {
		return fmt.Errorf("%w: %s count %d exceeds its %d-byte object", ErrCorruptStore, what, n, usable)
	}
	return nil
}

// initialize lays out the shard directory and shard headers, and
// stamps the root with the layout version, in one transaction.
func (s *Store) initialize(root pmemobj.Oid, nshards uint64) error {
	c := newCtx(s.rt)
	return c.Run(func(tx *pmemobj.Tx) {
		dir, err := s.rt.TxAlloc(tx, nshards*uint64(s.oidSize))
		if err != nil {
			c.Fail(err)
			return
		}
		dp := c.Direct(dir)
		for i := uint64(0); i < nshards && c.Err() == nil; i++ {
			hdr, err := s.rt.TxAlloc(tx, s.shardHdrSize())
			if err != nil {
				c.Fail(err)
				return
			}
			buckets, err := s.rt.TxAlloc(tx, initialBuckets*uint64(s.oidSize))
			if err != nil {
				c.Fail(err)
				return
			}
			hp := c.Direct(hdr)
			c.Store(hp, shNBuckets, initialBuckets)
			c.StoreOid(hp, shBuckets, buckets)
			c.StoreOid(dp, int64(i)*s.oidSize, hdr)
		}
		c.Snapshot(tx, root, 8+uint64(s.oidSize))
		rp := c.Direct(root)
		c.Store(rp, 0, layoutVersion<<32|nshards)
		c.StoreOid(rp, 8, dir)
	})
}

// slot is where a key lives: its shard index and the quotient of its
// hash by the shard count, the hash bits the shard index left unused.
type slot struct {
	shard uint64
	q     uint64
}

// slotOf hashes key with FNV-1a and splits the hash h between the two
// index levels: the shard is h mod nshards and the bucket (see
// slot.bucket) comes from h / nshards. The quotient keeps the levels
// disjoint for any shard count; the hash's high bits would not do,
// because FNV-1a mixes them poorly on short decimal keys.
func (s *Store) slotOf(key []byte) slot {
	f := fnv.New64a()
	_, _ = f.Write(key)
	h, n := f.Sum64(), uint64(len(s.shards))
	return slot{shard: h % n, q: h / n}
}

// bucket is the slot's bucket in a shard of nbuckets buckets.
func (k slot) bucket(nbuckets uint64) uint64 { return k.q % nbuckets }

// keyEqual compares the stored key of an entry with key.
func (s *Store) keyEqual(c *ctx, ep uint64, key []byte) bool {
	if c.Load(ep, enKLen) != uint64(len(key)) {
		return false
	}
	stored, err := hooks.LoadBytes(c.RT, c.RT.Gep(ep, s.entryDataOff()), uint64(len(key)))
	if err != nil {
		c.Fail(err)
		return false
	}
	return string(stored) == string(key)
}

// Get returns the value stored under key. Under MVCC the lookup pins
// the current epoch and walks the shard's published root with no shard
// lock; under NoMVCC it walks the same root under the shard's read
// lock, so it queues behind writers.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	k := s.slotOf(key)
	sh := &s.shards[k.shard]
	c := newCtx(s.rt)
	if !s.mvcc {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return s.getAt(c, sh.root.Load(), k, key)
	}
	e := s.pin()
	val, ok, err := s.getAt(c, sh.root.Load(), k, key)
	s.unpin(e)
	return val, ok, err
}

// Put stores value under key, replacing any existing value.
func (s *Store) Put(key, value []byte) error { return s.PutTraced(nil, key, value) }

// PutTraced is Put for a traced request: the transaction attributes
// its begin/commit/flush/fence stage durations to tr, and any rehash
// or version reclamation the write triggers lands in tr's maint
// phase. Nil tr is Put.
//
// The write copies on write: the touched chain prefix is copied, the
// new root is published atomically, and superseded versions retire
// for reclamation once no pinned snapshot can reach them.
func (s *Store) PutTraced(tr *trace.Req, key, value []byte) error {
	k := s.slotOf(key)
	sh := &s.shards[k.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	root := sh.root.Load()
	b := k.bucket(root.nbuckets)
	c := newCtx(s.rt)
	c.Trace = tr

	// Probe outside the transaction; the shard lock keeps the chain
	// stable between probe and commit.
	prefix, match, rest := s.findChain(c, root, b, key)
	if err := c.Take(); err != nil {
		return err
	}
	var newHead pmemobj.Oid
	var nodes []pmemobj.Oid
	delta := int64(1)
	err := c.Run(func(tx *pmemobj.Tx) {
		var retired []pmemobj.Oid
		if match.IsNull() {
			// Insert at head: nothing to copy, nothing to retire.
			newHead = s.newEntry(c, tx, key, value, root.head(b))
		} else {
			delta = 0
			fresh := s.newEntry(c, tx, key, value, rest)
			newHead = s.copyChain(c, tx, prefix, fresh)
			retired = append(append(retired, prefix...), match)
		}
		nodes = s.persistPublish(c, tx, sh, b, newHead, delta, retired)
	})
	if err != nil {
		return err
	}
	s.publish(sh, root.withHead(b, newHead, delta), nodes)
	if err := s.maybeRehash(sh, tr); err != nil {
		return err
	}
	return s.drainShard(sh, c, tr)
}

// maybeRehash doubles the bucket array when the load factor exceeds
// one. Every entry is copied — published roots may reference any old
// entry, and relinking would mutate its next field — and the old
// population retires as one batch. The old bucket array is freed
// in-transaction: readers walk the volatile roots, never the
// persistent bucket array. Caller holds sh.mu. The work attributes to
// the triggering request's maint phase.
func (s *Store) maybeRehash(sh *shard, tr *trace.Req) error {
	root := sh.root.Load()
	if root.count <= root.nbuckets {
		return nil
	}
	span := tr.Span(trace.PhaseMaint)
	defer span.End()

	newN := root.nbuckets * 2
	c := newCtx(s.rt)
	c.Trace = tr
	newRoot := newShardRoot(newN, root.count)
	var nodes []pmemobj.Oid
	err := c.Run(func(tx *pmemobj.Tx) {
		fresh, err := s.rt.TxAlloc(tx, newN*uint64(s.oidSize))
		if err != nil {
			c.Fail(err)
			return
		}
		var retired []pmemobj.Oid
		for bkt := uint64(0); bkt < root.nbuckets && c.Err() == nil; bkt++ {
			entry := root.head(bkt)
			for !entry.IsNull() && c.Err() == nil {
				ep := c.Direct(entry)
				klen := c.Load(ep, enKLen)
				kb := c.LoadBytes(ep, s.entryDataOff(), klen)
				if c.Err() != nil {
					return
				}
				nb := s.slotOf(kb).bucket(newN)
				cp := s.copyEntry(c, tx, entry, newRoot.head(nb))
				newRoot.setHead(nb, cp)
				retired = append(retired, entry)
				entry = c.LoadOid(ep, enNext)
			}
		}
		if c.Err() != nil {
			return
		}
		// The new heads go into the fresh persistent bucket array —
		// a fresh allocation, so no snapshots are needed for it.
		np := c.Direct(fresh)
		for bkt := uint64(0); bkt < newN && c.Err() == nil; bkt++ {
			if h := newRoot.head(bkt); !h.IsNull() {
				c.StoreOid(np, int64(bkt)*s.oidSize, h)
			}
		}
		hp := c.Direct(sh.hdr)
		oldBuckets := c.LoadOid(hp, shBuckets)
		c.SnapshotField(tx, sh.hdr, shNBuckets, 8+uint64(s.oidSize))
		hp = c.Direct(sh.hdr)
		c.Store(hp, shNBuckets, newN)
		c.StoreOid(hp, shBuckets, fresh)
		if err := c.RT.TxFree(tx, oldBuckets); err != nil {
			c.Fail(err)
			return
		}
		nodes = s.appendRetire(c, tx, sh, retired)
	})
	if err != nil {
		return err
	}
	s.publish(sh, newRoot, nodes)
	return nil
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key []byte) (bool, error) { return s.DeleteTraced(nil, key) }

// DeleteTraced is Delete attributing transaction stage durations to a
// traced request. Nil tr is Delete. Like Put it copies the chain
// prefix on write and retires the superseded entries.
func (s *Store) DeleteTraced(tr *trace.Req, key []byte) (bool, error) {
	k := s.slotOf(key)
	sh := &s.shards[k.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	root := sh.root.Load()
	b := k.bucket(root.nbuckets)
	c := newCtx(s.rt)
	c.Trace = tr

	prefix, match, rest := s.findChain(c, root, b, key)
	if err := c.Take(); err != nil {
		return false, err
	}
	if match.IsNull() {
		return false, nil
	}
	var newHead pmemobj.Oid
	var nodes []pmemobj.Oid
	err := c.Run(func(tx *pmemobj.Tx) {
		newHead = s.copyChain(c, tx, prefix, rest)
		nodes = s.persistPublish(c, tx, sh, b, newHead, -1, append(prefix, match))
	})
	if err != nil {
		return false, err
	}
	s.publish(sh, root.withHead(b, newHead, -1), nodes)
	return true, s.drainShard(sh, c, tr)
}

// Count returns the total number of keys, summed from the published
// roots — no locks, no PM reads.
func (s *Store) Count() (uint64, error) {
	var total uint64
	for i := range s.shards {
		total += s.shards[i].root.Load().count
	}
	return total, nil
}

// ctx aliases the shared sticky-error accessor.
type ctx = pmaccess.Ctx

func newCtx(rt hooks.Runtime) *ctx { return pmaccess.New(rt) }
