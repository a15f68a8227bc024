package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hooks"
	"repro/internal/pmem"
	"repro/internal/pmemcheck"
	"repro/internal/trace"
	"repro/internal/variant"
)

func newStoreKnobs(t *testing.T, kind variant.Kind, knobs engine.Knobs) (*Store, *variant.Env) {
	t.Helper()
	env, err := variant.New(kind, variant.Options{PoolSize: 128 << 20, Knobs: knobs})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT)
	if err != nil {
		t.Fatal(err)
	}
	return s, env
}

// TestSnapshotFrozenUnderStorm is the MVCC property test: a snapshot
// taken mid-storm is internally consistent, stays byte-identical no
// matter how hard writers churn afterwards, and holding it never
// blocks the writers.
func TestSnapshotFrozenUnderStorm(t *testing.T) {
	s, _ := newStore(t, variant.SPP)
	const keySpace = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	// Values name their key and generation, so a torn read (a value
	// spliced onto the wrong key or mixed across generations) is
	// self-evident.
	val := func(i, gen int) []byte { return []byte(fmt.Sprintf("k%04d=g%d", i, gen)) }
	for i := 0; i < keySpace; i++ {
		if err := s.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var writeOps atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for gen := 1; !stop.Load(); gen++ {
				i := rng.Intn(keySpace)
				var err error
				if rng.Intn(8) == 0 {
					_, err = s.Delete(key(i))
				} else {
					err = s.Put(key(i), val(i, gen))
				}
				if err != nil {
					t.Error(err)
					return
				}
				writeOps.Add(1)
			}
		}(w)
	}
	defer func() { stop.Store(true); wg.Wait() }()

	// Let the storm run a bit, then freeze a view mid-flight.
	for writeOps.Load() < 500 {
		runtime.Gosched()
	}
	sn := s.Snapshot()
	defer sn.Release()

	capture := func() map[string]string {
		m := make(map[string]string)
		if err := sn.Scan(nil, nil, func(k, v []byte) bool {
			m[string(k)] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	frozen := capture()
	if n, err := sn.Count(); err != nil || n != uint64(len(frozen)) {
		t.Fatalf("snapshot Count = %d, %v; scan saw %d", n, err, len(frozen))
	}
	for k, v := range frozen {
		if !bytes.HasPrefix([]byte(v), []byte(k+"=")) {
			t.Fatalf("torn entry in snapshot: key %q has value %q", k, v)
		}
	}

	// The frozen view must not move while writers keep going, and the
	// writers must keep going while it is held: re-verify the capture
	// until the storm has demonstrably advanced under the held pin.
	before := writeOps.Load()
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; writeOps.Load() < before+500 || round < 5; round++ {
		if time.Now().After(deadline) {
			t.Fatal("writers made no progress while a snapshot was held")
		}
		again := capture()
		if len(again) != len(frozen) {
			t.Fatalf("round %d: snapshot size changed %d -> %d", round, len(frozen), len(again))
		}
		for k, v := range frozen {
			if again[k] != v {
				t.Fatalf("round %d: snapshot moved: %q was %q, now %q", round, k, v, again[k])
			}
		}
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("k%04d", i*7%keySpace)
			v, ok, err := sn.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			want, inSnap := frozen[k]
			if ok != inSnap || (ok && string(v) != want) {
				t.Fatalf("snapshot Get(%q) = %q,%v, want %q,%v", k, v, ok, want, inSnap)
			}
		}
		runtime.Gosched()
	}
}

// TestEpochReclaimNoLeak drives churn against a pinned snapshot and
// checks pool occupancy returns exactly to baseline once the snapshot
// releases and the eligible epochs are reclaimed.
func TestEpochReclaimNoLeak(t *testing.T) {
	s, env := newStore(t, variant.SPP)
	const n = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("leak-%04d", i)) }
	v := make([]byte, 64)
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	base := env.Pool.Stats()

	sn := s.Snapshot()
	for round := 0; round < 3; round++ {
		vv := bytes.Repeat([]byte{byte('a' + round)}, 64)
		for i := 0; i < n; i++ {
			if err := s.Put(key(i), vv); err != nil {
				t.Fatal(err)
			}
		}
	}
	mid := env.Pool.Stats()
	if mid.AllocatedObjects <= base.AllocatedObjects {
		t.Fatalf("pinned churn did not grow occupancy: %d -> %d objects",
			base.AllocatedObjects, mid.AllocatedObjects)
	}
	// The pin still resolves to the pre-churn bytes.
	if got, ok, err := sn.Get(key(0)); err != nil || !ok || !bytes.Equal(got, v) {
		t.Fatalf("pinned Get = %q, %v, %v; want original value", got, ok, err)
	}
	if err := sn.Release(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reclaim(); err != nil {
		t.Fatal(err)
	}
	after := env.Pool.Stats()
	if after.AllocatedBytes != base.AllocatedBytes || after.AllocatedObjects != base.AllocatedObjects {
		t.Fatalf("leak after release: %d bytes / %d objects, baseline %d / %d",
			after.AllocatedBytes, after.AllocatedObjects,
			base.AllocatedBytes, base.AllocatedObjects)
	}
}

// TestSnapshotUseAfterRelease pins the released-snapshot contract.
func TestSnapshotUseAfterRelease(t *testing.T) {
	s, _ := newStore(t, variant.SPP)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if err := sn.Release(); err != nil {
		t.Fatal(err)
	}
	if err := sn.Release(); err != nil {
		t.Fatalf("second Release = %v, want nil", err)
	}
	if _, _, err := sn.Get([]byte("k")); err != errReleased {
		t.Errorf("Get after release = %v, want errReleased", err)
	}
	if _, err := sn.Count(); err != errReleased {
		t.Errorf("Count after release = %v, want errReleased", err)
	}
	if err := sn.Scan(nil, nil, func(_, _ []byte) bool { return true }); err != errReleased {
		t.Errorf("Scan after release = %v, want errReleased", err)
	}
}

// persistentGet is the differential reference reader: it walks the
// persistent bucket array (shBuckets) under the shard read lock, so it
// shares neither the published root nor getAt with the store's read
// paths.
func persistentGet(s *Store, key []byte) ([]byte, bool, error) {
	k := s.slotOf(key)
	sh := &s.shards[k.shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()

	c := newCtx(s.rt)
	hp := c.Direct(sh.hdr)
	n := c.Load(hp, shNBuckets)
	buckets := c.LoadOid(hp, shBuckets)
	if err := c.Take(); err != nil || n == 0 {
		return nil, false, err
	}
	entry := c.LoadOid(c.Direct(buckets), int64(k.bucket(n))*s.oidSize)
	for !entry.IsNull() && c.Err() == nil {
		ep := c.Direct(entry)
		if s.keyEqual(c, ep, key) {
			vlen := c.Load(ep, enVLen)
			val, err := hooks.LoadBytes(c.RT, c.RT.Gep(ep, s.entryDataOff()+int64(len(key))), vlen)
			if err != nil {
				c.Fail(err)
				break
			}
			return val, true, c.Take()
		}
		entry = c.LoadOid(ep, enNext)
	}
	return nil, false, c.Take()
}

// TestSnapshotFaultVerdictsMatchLocked is the differential safety
// test: corrupting an entry's persistent length field must produce the
// same verdict — trap or silent over-read, per the variant's contract —
// whether the entry is read by a locked walk of the persistent bucket
// array or through the snapshot path. The snapshot path acquires no
// locks but runs every access through the same protection hooks.
func TestSnapshotFaultVerdictsMatchLocked(t *testing.T) {
	for _, kind := range variant.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			s, env := newStore(t, kind)
			key := []byte("victim")
			if err := s.Put(key, []byte("0123456789abcdef")); err != nil {
				t.Fatal(err)
			}
			// Locate the entry and inflate its stored value length past
			// the allocation via a raw device write (contents corruption;
			// allocator and protection metadata stay intact).
			k := s.slotOf(key)
			sh := &s.shards[k.shard]
			entry := sh.root.Load().head(k.bucket(sh.root.Load().nbuckets))
			if entry.IsNull() {
				t.Fatal("victim entry not found")
			}
			raw := env.Dev.Data()
			vlenOff := entry.Off + uint64(enVLen)
			binary.LittleEndian.PutUint64(raw[vlenOff:],
				binary.LittleEndian.Uint64(raw[vlenOff:])+64)

			lv, lok, lerr := persistentGet(s, key)
			sn := s.Snapshot()
			sv, sok, serr := sn.Get(key)
			if err := sn.Release(); err != nil {
				t.Fatal(err)
			}
			if (lerr == nil) != (serr == nil) ||
				hooks.IsSafetyTrap(lerr) != hooks.IsSafetyTrap(serr) {
				t.Fatalf("verdicts diverge: locked err=%v, snapshot err=%v", lerr, serr)
			}
			if lerr == nil && (lok != sok || !bytes.Equal(lv, sv)) {
				t.Fatalf("results diverge: locked %q,%v vs snapshot %q,%v", lv, lok, sv, sok)
			}
			t.Logf("%s: trap=%v (err=%v)", kind, hooks.IsSafetyTrap(serr), serr)
		})
	}
}

// TestScanOracle checks ordered range scans and Count against a
// sorted oracle in both read modes — the MVCC snapshot path and the
// -no-mvcc read-locked fallback — then reopens the pool under the other
// mode, whose choice is volatile, and checks the same state again
// before and after more churn.
func TestScanOracle(t *testing.T) {
	for _, noMVCC := range []bool{false, true} {
		t.Run(fmt.Sprintf("noMVCC=%v", noMVCC), func(t *testing.T) {
			s, env := newStoreKnobs(t, variant.SPP, engine.Knobs{NoMVCC: noMVCC})
			oracle := make(map[string]string)
			rng := rand.New(rand.NewSource(7))
			churn := func(s *Store, ops int) {
				for i := 0; i < ops; i++ {
					k := fmt.Sprintf("key-%05d", rng.Intn(600))
					if rng.Intn(4) == 0 {
						if _, err := s.Delete([]byte(k)); err != nil {
							t.Fatal(err)
						}
						delete(oracle, k)
					} else {
						v := fmt.Sprintf("v%d", rng.Int())
						if err := s.Put([]byte(k), []byte(v)); err != nil {
							t.Fatal(err)
						}
						oracle[k] = v
					}
				}
			}
			check := func(s *Store) {
				t.Helper()
				sorted := make([]string, 0, len(oracle))
				for k := range oracle {
					sorted = append(sorted, k)
				}
				sort.Strings(sorted)
				if n, err := s.Count(); err != nil || n != uint64(len(sorted)) {
					t.Fatalf("Count = %d, %v; oracle %d", n, err, len(sorted))
				}
				collect := func(lo, hi []byte) []string {
					var got []string
					if err := s.Scan(lo, hi, func(k, v []byte) bool {
						if oracle[string(k)] != string(v) {
							t.Fatalf("Scan %q = %q, oracle %q", k, v, oracle[string(k)])
						}
						got = append(got, string(k))
						return true
					}); err != nil {
						t.Fatal(err)
					}
					return got
				}
				full := collect(nil, nil)
				if len(full) != len(sorted) {
					t.Fatalf("full scan: %d keys, oracle %d", len(full), len(sorted))
				}
				for i := range full {
					if full[i] != sorted[i] {
						t.Fatalf("order diverges at %d: %q vs %q", i, full[i], sorted[i])
					}
				}
				for trial := 0; trial < 10; trial++ {
					i, j := rng.Intn(len(sorted)), rng.Intn(len(sorted))
					if i > j {
						i, j = j, i
					}
					lo, hi := []byte(sorted[i]), []byte(sorted[j])
					got := collect(lo, hi)
					want := sorted[i:j] // hi exclusive
					if len(got) != len(want) {
						t.Fatalf("range [%s,%s): %d keys, want %d", lo, hi, len(got), len(want))
					}
				}
				// Early stop: fn returning false ends the visit.
				var n int
				if err := s.Scan(nil, nil, func(_, _ []byte) bool {
					n++
					return n < 5
				}); err != nil {
					t.Fatal(err)
				}
				if n != 5 {
					t.Fatalf("early stop visited %d keys, want 5", n)
				}
			}
			churn(s, 1500)
			check(s)

			if err := env.Pool.Close(); err != nil {
				t.Fatal(err)
			}
			env2, err := variant.AdoptConfig(variant.SPP, env.Dev,
				variant.Options{Knobs: engine.Knobs{NoMVCC: !noMVCC}})
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Open(env2.RT)
			if err != nil {
				t.Fatal(err)
			}
			if s2.mvcc != noMVCC {
				t.Fatalf("reopened store mvcc = %v, want %v", s2.mvcc, noMVCC)
			}
			check(s2)
			churn(s2, 500)
			check(s2)
		})
	}
}

// TestRehashMaintAttribution checks a traced Put that triggers a shard
// rehash reports the work under PhaseMaint.
func TestRehashMaintAttribution(t *testing.T) {
	env, err := variant.New(variant.SPP, variant.Options{PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(env.RT, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	before := trace.Snapshot()
	tr := trace.Start(42, "put", "t")
	for i := 0; i < initialBuckets+8; i++ {
		if err := s.PutTraced(tr, []byte(fmt.Sprintf("m%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tr.Finish()
	d := trace.Snapshot().Delta(before)
	if d.Phase[trace.PhaseMaint] == 0 {
		t.Fatal("rehash under a traced Put reported no PhaseMaint time")
	}
}

// TestCrashRecoveryMidStorm crashes a store mid-churn — with a pinned
// snapshot keeping retire chains populated across the window, then a
// post-release stretch where reclaim unlinks them — and checks, for
// every protection variant and every explored power-loss state, that
// recovery rebuilds a consistent latest root and drains every retire
// chain (volatile snapshots do not survive by design; the superseded
// versions they pinned must not leak).
func TestCrashRecoveryMidStorm(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("c%03d", i)) }
	val := func(i, gen int) []byte { return []byte(fmt.Sprintf("c%03d=g%d", i, gen)) }
	const n = 12
	for _, kind := range variant.Kinds {
		t.Run(string(kind), func(t *testing.T) {
			env, err := variant.New(kind, variant.Options{PoolSize: 32 << 20})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(env.RT)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := s.Put(key(i), val(i, 0)); err != nil {
					t.Fatal(err)
				}
			}
			base := make([]byte, env.Dev.Size())
			copy(base, env.Dev.Data())

			tr := pmemcheck.NewTracker()
			env.Dev.EnableTracking(tr)
			sn := s.Snapshot() // keeps every retire of the next window on-chain
			for gen := 1; gen <= 2; gen++ {
				for i := 0; i < n; i++ {
					if err := s.Put(key(i), val(i, gen)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 3; i++ {
				if _, err := s.Delete(key(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sn.Release(); err != nil {
				t.Fatal(err)
			}
			// Post-release churn makes the writers' opportunistic drain
			// (chain unlink + frees) part of the crash window too.
			for i := 3; i < n; i++ {
				if err := s.Put(key(i), val(i, 3)); err != nil {
					t.Fatal(err)
				}
			}
			env.Dev.DisableTracking()

			rep := pmemcheck.Analyze(tr.Events())
			if !rep.Clean() {
				t.Fatalf("protocol violations: %v", rep.Violations[:min(3, len(rep.Violations))])
			}
			states, err := pmemcheck.Explore(base, tr.Events(),
				pmemcheck.ExploreOptions{EveryNthFence: 32, MaxSingles: 1, MaxStates: 60},
				func(img []byte) error {
					dev := pmem.NewPool("mvcc-crash", uint64(len(img)))
					copy(dev.Data(), img)
					env2, err := variant.Adopt(kind, dev)
					if err != nil {
						return err
					}
					s2, err := Open(env2.RT)
					if err != nil {
						return err
					}
					count, err := s2.Count()
					if err != nil {
						return err
					}
					var reachable uint64
					for i := 0; i < n; i++ {
						v, ok, err := s2.Get(key(i))
						if err != nil {
							return fmt.Errorf("get(%d): %w", i, err)
						}
						if ok {
							reachable++
							if !bytes.HasPrefix(v, []byte(fmt.Sprintf("c%03d=", i))) {
								return fmt.Errorf("key %d has foreign value %q", i, v)
							}
						}
					}
					if reachable != count {
						return fmt.Errorf("count %d but %d reachable", count, reachable)
					}
					// Open drains every retire chain: nothing superseded
					// survives recovery, on-chain or volatile.
					c := newCtx(env2.RT)
					for si := range s2.shards {
						sh := &s2.shards[si]
						if !sh.retireTail.IsNull() {
							return fmt.Errorf("shard %d: volatile retire tail survived recovery", si)
						}
						head := c.LoadOid(c.Direct(sh.hdr), s2.shRetireOff())
						if err := c.Take(); err != nil {
							return err
						}
						if !head.IsNull() {
							return fmt.Errorf("shard %d: persistent retire chain survived recovery", si)
						}
					}
					return nil
				})
			if err != nil {
				t.Fatalf("inconsistent crash state: %v", err)
			}
			t.Logf("%d crash states consistent", states)
		})
	}
}
