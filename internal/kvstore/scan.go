// Ordered range scans over the hash layout (DESIGN.md §17): each
// shard's in-range entries are collected from an immutable view and
// sorted, then the per-shard runs merge through a min-heap into one
// globally ordered visit. A key lives in exactly one shard, so the
// merge never sees duplicates.
package kvstore

import (
	"bytes"
	"container/heap"
	"sort"

	"repro/internal/pmemobj"
)

// scanItem is one in-range entry: the key (loaded eagerly — ordering
// needs it) and the entry oid. val is loaded lazily at visit time on
// the snapshot path (the pin keeps the entry alive); the locked path
// loads it eagerly before the shard lock drops.
type scanItem struct {
	key    []byte
	val    []byte
	hasVal bool
	entry  pmemobj.Oid
}

// inRange reports lo <= key < hi, with nil meaning unbounded.
func inRange(key, lo, hi []byte) bool {
	return (lo == nil || bytes.Compare(key, lo) >= 0) &&
		(hi == nil || bytes.Compare(key, hi) < 0)
}

// collectRange walks one immutable shard root and returns its in-range
// items sorted by key. With eager set, values are copied out too.
func (s *Store) collectRange(c *ctx, root *shardRoot, lo, hi []byte, eager bool) ([]scanItem, error) {
	var items []scanItem
	for b := uint64(0); b < root.nbuckets; b++ {
		entry := root.head(b)
		for !entry.IsNull() && c.Err() == nil {
			ep := c.Direct(entry)
			klen := c.Load(ep, enKLen)
			key := c.LoadBytes(ep, s.entryDataOff(), klen)
			if c.Err() != nil {
				break
			}
			if inRange(key, lo, hi) {
				it := scanItem{key: key, entry: entry}
				if eager {
					vlen := c.Load(ep, enVLen)
					it.val = c.LoadBytes(ep, s.entryDataOff()+int64(klen), vlen)
					it.hasVal = true
				}
				items = append(items, it)
			}
			entry = c.LoadOid(ep, enNext)
		}
	}
	if err := c.Take(); err != nil {
		return nil, err
	}
	sort.Slice(items, func(i, j int) bool {
		return bytes.Compare(items[i].key, items[j].key) < 0
	})
	return items, nil
}

// mergeHeap is a min-heap of non-empty sorted runs keyed by each run's
// first item.
type mergeHeap [][]scanItem

func (m mergeHeap) Len() int { return len(m) }
func (m mergeHeap) Less(i, j int) bool {
	return bytes.Compare(m[i][0].key, m[j][0].key) < 0
}
func (m mergeHeap) Swap(i, j int) { m[i], m[j] = m[j], m[i] }
func (m *mergeHeap) Push(x any)   { *m = append(*m, x.([]scanItem)) }
func (m *mergeHeap) Pop() any {
	old := *m
	x := old[len(old)-1]
	*m = old[:len(old)-1]
	return x
}

// visitMerged merges the per-shard runs and calls fn on each pair in
// ascending key order, stopping early when fn returns false.
func (s *Store) visitMerged(c *ctx, runs [][]scanItem, fn func(key, value []byte) bool) error {
	h := make(mergeHeap, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			h = append(h, r)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		run := h[0]
		it := run[0]
		val := it.val
		if !it.hasVal {
			ep := c.Direct(it.entry)
			vlen := c.Load(ep, enVLen)
			val = c.LoadBytes(ep, s.entryDataOff()+int64(len(it.key)), vlen)
			if err := c.Take(); err != nil {
				return err
			}
		}
		if !fn(it.key, val) {
			return nil
		}
		if len(run) > 1 {
			h[0] = run[1:]
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

// Scan visits every key in [lo, hi) in ascending byte order (nil lo
// scans from the start, nil hi to the end), stopping early when fn
// returns false. Under MVCC it runs against a private snapshot; under
// NoMVCC it collects each shard's latest root under its read lock.
func (s *Store) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	if !s.mvcc {
		return s.lockedScan(lo, hi, fn)
	}
	sn := s.Snapshot()
	err := sn.Scan(lo, hi, fn)
	if rerr := sn.Release(); err == nil {
		err = rerr
	}
	return err
}

// Scan is Store.Scan against the snapshot's frozen view: no locks, and
// the result is stable no matter how hard writers churn.
func (sn *Snap) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	if !sn.pinned {
		return sn.s.lockedScan(lo, hi, fn)
	}
	if sn.released {
		return errReleased
	}
	c := newCtx(sn.s.rt)
	runs := make([][]scanItem, 0, len(sn.roots))
	for _, r := range sn.roots {
		run, err := sn.s.collectRange(c, r, lo, hi, false)
		if err != nil {
			return err
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	return sn.s.visitMerged(c, runs, fn)
}

// lockedScan is the NoMVCC fallback: each shard's latest root is
// walked under the shard read lock just long enough to collect and
// copy its in-range pairs (values eagerly — once the lock drops a
// writer frees superseded entries), then the per-shard runs merge
// exactly like the snapshot path.
func (s *Store) lockedScan(lo, hi []byte, fn func(key, value []byte) bool) error {
	c := newCtx(s.rt)
	runs := make([][]scanItem, 0, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		run, err := s.collectRange(c, sh.root.Load(), lo, hi, true)
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	return s.visitMerged(c, runs, fn)
}
