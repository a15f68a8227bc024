package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/variant"
)

// decimalKey is the benchmark's key form: the index as 16 zero-padded
// decimal digits.
func decimalKey(i int) []byte { return []byte(fmt.Sprintf("%016d", i)) }

// randomKeys returns n distinct 16-byte keys of random printable bytes.
func randomKeys(n int, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		k := make([]byte, 16)
		for i := range k {
			k[i] = byte('!' + r.Intn(94))
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestBucketSpread checks that keys spread evenly over shards and over
// each shard's buckets, for shard counts that divide the bucket count
// and one that does not. The shard and bucket indices must come from
// disjoint hash bits: when both take the same low bits, every key of a
// shard lands in nbuckets/nshards of its buckets and chains grow with
// the store.
func TestBucketSpread(t *testing.T) {
	// Key counts keep every shard's load factor near 0.75, so about
	// half of a well-spread shard's buckets are non-empty.
	for _, tc := range []struct {
		shards uint64
		keys   int
	}{{1, 24000}, {3, 24000}, {8, 24000}, {64, 48000}} {
		for _, form := range []string{"decimal", "random"} {
			t.Run(fmt.Sprintf("shards=%d/%s", tc.shards, form), func(t *testing.T) {
				env, err := variant.New(variant.PMDK, variant.Options{PoolSize: 64 << 20})
				if err != nil {
					t.Fatal(err)
				}
				s, err := Open(env.RT, WithShards(tc.shards))
				if err != nil {
					t.Fatal(err)
				}
				keys := randomKeys(tc.keys, 5)
				if form == "decimal" {
					for i := range keys {
						keys[i] = decimalKey(i)
					}
				}
				for _, k := range keys {
					if err := s.Put(k, []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				checkSpread(t, s, tc.keys)
			})
		}
	}
}

// checkSpread asserts every shard holds within 25% of the mean key
// count, no chain is longer than 8 entries, and at least 40% of each
// shard's buckets are non-empty.
func checkSpread(t *testing.T, s *Store, keys int) {
	t.Helper()
	mean := float64(keys) / float64(len(s.shards))
	c := newCtx(s.rt)
	for i := range s.shards {
		root := s.shards[i].root.Load()
		if d := float64(root.count) - mean; d > mean/4 || -d > mean/4 {
			t.Errorf("shard %d holds %d keys, mean %.0f", i, root.count, mean)
		}
		used, longest := uint64(0), 0
		for b := uint64(0); b < root.nbuckets; b++ {
			n := 0
			for e := root.head(b); !e.IsNull(); e = c.LoadOid(c.Direct(e), enNext) {
				n++
			}
			if n > 0 {
				used++
			}
			longest = max(longest, n)
		}
		if err := c.Take(); err != nil {
			t.Fatal(err)
		}
		if longest > 8 {
			t.Errorf("shard %d: longest chain %d entries, want <= 8", i, longest)
		}
		if 10*used < 4*root.nbuckets {
			t.Errorf("shard %d: %d of %d buckets non-empty, want >= 40%%", i, used, root.nbuckets)
		}
	}
}

// TestOpenRejectsCorruptStore corrupts one field of the store root or
// a shard header at a time and checks that Open returns the matching
// error and leaves the image byte-for-byte unchanged.
func TestOpenRejectsCorruptStore(t *testing.T) {
	for _, kind := range []variant.Kind{variant.PMDK, variant.SPP, variant.SafePM} {
		t.Run(string(kind), func(t *testing.T) {
			env, err := variant.New(kind, variant.Options{PoolSize: 16 << 20})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(env.RT, WithShards(8))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if err := s.Put(decimalKey(i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			root, err := env.RT.Root(8 + uint64(s.oidSize))
			if err != nil {
				t.Fatal(err)
			}
			dirCap, err := env.RT.UsableSize(s.dir)
			if err != nil {
				t.Fatal(err)
			}
			sh := &s.shards[5]
			c := newCtx(env.RT)
			buckets := c.LoadOid(c.Direct(sh.hdr), shBuckets)
			if err := c.Take(); err != nil {
				t.Fatal(err)
			}
			bucketCap, err := env.RT.UsableSize(buckets)
			if err != nil {
				t.Fatal(err)
			}
			oid := uint64(s.oidSize)
			v := uint64(layoutVersion) << 32
			rootWord := root.Off
			nbWord := sh.hdr.Off + shNBuckets
			for _, tc := range []struct {
				name string
				off  uint64
				val  uint64
				want error
			}{
				{"version absent", rootWord, 8, ErrLayoutVersion},
				{"version unknown", rootWord, (layoutVersion+1)<<32 | 8, ErrLayoutVersion},
				{"nshards zero", rootWord, v, ErrCorruptStore},
				{"nshards past directory", rootWord, v | (dirCap/oid + 1), ErrCorruptStore},
				{"nshards huge", rootWord, v | 1<<31, ErrCorruptStore},
				{"nbuckets zero", nbWord, 0, ErrCorruptStore},
				{"nbuckets past bucket array", nbWord, bucketCap/oid + 1, ErrCorruptStore},
				{"nbuckets huge", nbWord, 1 << 40, ErrCorruptStore},
			} {
				t.Run(tc.name, func(t *testing.T) {
					raw := env.Dev.Data()
					saved := binary.LittleEndian.Uint64(raw[tc.off:])
					defer binary.LittleEndian.PutUint64(raw[tc.off:], saved)
					binary.LittleEndian.PutUint64(raw[tc.off:], tc.val)
					before := bytes.Clone(raw)
					_, err := Open(env.RT)
					if !errors.Is(err, tc.want) {
						t.Fatalf("Open = %v, want %v", err, tc.want)
					}
					if !bytes.Equal(raw, before) {
						t.Fatal("rejected Open wrote to the image")
					}
				})
			}
			// Every corruption was undone: the image opens and serves.
			s2, err := Open(env.RT)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := s2.Count(); n != 200 {
				t.Fatalf("Count after reopen = %d, want 200", n)
			}
		})
	}
}

// benchStore preloads a 100k-key store with the servebench key and
// value shapes (16-byte decimal keys, 256-byte values).
func benchStore(b *testing.B, kind variant.Kind) (*Store, [][]byte) {
	b.Helper()
	env, err := variant.New(kind, variant.Options{PoolSize: 128 << 20})
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(env.RT)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, 100_000)
	val := make([]byte, 256)
	for i := range keys {
		keys[i] = decimalKey(i)
		if err := s.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys
}

// benchKV runs op over a preloaded store for spp and for none (the
// uninstrumented PMDK baseline), visiting keys in a fixed random order.
func benchKV(b *testing.B, op func(b *testing.B, s *Store, key []byte)) {
	for _, v := range []struct {
		name string
		kind variant.Kind
	}{{"spp", variant.SPP}, {"none", variant.PMDK}} {
		b.Run(v.name, func(b *testing.B) {
			s, keys := benchStore(b, v.kind)
			order := rand.New(rand.NewSource(1)).Perm(len(keys))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(b, s, keys[order[i%len(order)]])
			}
		})
	}
}

func BenchmarkPut(b *testing.B) {
	val := make([]byte, 256)
	benchKV(b, func(b *testing.B, s *Store, key []byte) {
		if err := s.Put(key, val); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkGet(b *testing.B) {
	benchKV(b, func(b *testing.B, s *Store, key []byte) {
		if _, ok, err := s.Get(key); err != nil || !ok {
			b.Fatal(ok, err)
		}
	})
}

func BenchmarkSnapGet(b *testing.B) {
	benchKV(b, func(b *testing.B, s *Store, key []byte) {
		sn := s.Snapshot()
		if _, ok, err := sn.Get(key); err != nil || !ok {
			b.Fatal(ok, err)
		}
		if err := sn.Release(); err != nil {
			b.Fatal(err)
		}
	})
}
