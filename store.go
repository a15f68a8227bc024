package spp

import "repro/internal/kvstore"

// Store is the concurrent persistent key-value store (the pmemkv-style
// cmap engine) opened over a protected pool: a sharded persistent hash
// map whose every PM access runs through the pool's protection hooks,
// so the same store runs under any Protection. It is the public
// surface the examples, the network server and the benchmarks share.
type Store struct {
	kv *kvstore.Store
}

// StoreOption configures OpenStore.
type StoreOption func(*storeConfig)

type storeConfig struct {
	shards uint64
}

// WithShards sets the shard count for a store created by this
// OpenStore (0 means the default). The count is persisted at creation;
// reopening an existing store always uses its stored count.
func WithShards(n uint64) StoreOption {
	return func(c *storeConfig) { c.shards = n }
}

// OpenStore opens (or creates) the pool's key-value store. After a
// Reopen, call OpenStore again to rebuild the store's volatile shard
// table over the recovered pool.
func (p *Pool) OpenStore(opts ...StoreOption) (*Store, error) {
	var c storeConfig
	for _, o := range opts {
		o(&c)
	}
	kv, err := kvstore.Open(p.env.RT, kvstore.WithShards(c.shards))
	if err != nil {
		return nil, wrap(err)
	}
	return &Store{kv: kv}, nil
}

// Get returns the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	v, ok, err := s.kv.Get(key)
	return v, ok, wrap(err)
}

// Put stores value under key, replacing any existing value.
func (s *Store) Put(key, value []byte) error {
	return wrap(s.kv.Put(key, value))
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key []byte) (bool, error) {
	ok, err := s.kv.Delete(key)
	return ok, wrap(err)
}

// Count returns the total number of keys.
func (s *Store) Count() (uint64, error) {
	n, err := s.kv.Count()
	return n, wrap(err)
}

// Scan visits every key in [lo, hi) in ascending byte order (nil lo
// scans from the start, nil hi to the end), stopping early when fn
// returns false. The whole scan observes one consistent snapshot and
// never blocks writers; see Snapshot for holding that view across
// several operations.
func (s *Store) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	return wrap(s.kv.Scan(lo, hi, fn))
}

// Snap is a pinned, immutable view of the store at one moment: Get,
// Count and Scan against it observe exactly the versions that were
// current at Snapshot time, no matter how writers churn afterwards,
// and acquire no locks. A Snap pins superseded versions in the pool,
// so Release it promptly. Snapshots are volatile: none survive a
// crash or Reopen (recovery rebuilds the latest state only).
type Snap struct {
	sn *kvstore.Snap
}

// Snapshot pins the store's current version and returns the frozen
// view. Always Release it (safe via defer — Release is idempotent).
// When the pool runs with -no-mvcc, the returned Snap pins nothing:
// its reads take each shard's read lock and see the latest state.
func (s *Store) Snapshot() *Snap {
	return &Snap{sn: s.kv.Snapshot()}
}

// Get returns the value stored under key in the snapshot.
func (s *Snap) Get(key []byte) ([]byte, bool, error) {
	v, ok, err := s.sn.Get(key)
	return v, ok, wrap(err)
}

// Count returns the number of keys in the snapshot.
func (s *Snap) Count() (uint64, error) {
	n, err := s.sn.Count()
	return n, wrap(err)
}

// Scan is Store.Scan against the snapshot's frozen view.
func (s *Snap) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	return wrap(s.sn.Scan(lo, hi, fn))
}

// Release unpins the snapshot, letting the versions it held be
// reclaimed. Calling it again is a no-op.
func (s *Snap) Release() error {
	return wrap(s.sn.Release())
}
