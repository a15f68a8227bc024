package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/pmemobj"
	"repro/internal/variant"
	"repro/internal/wire"
)

// The in-process layer rungs. Each times a layer through its public
// functions, single-goroutine, at the workload's key count and value
// size, and records one span per timed call (or per batch, where a
// call is too short to time alone).

// timer times calls one at a time and records each as a span.
type timer struct {
	sb     *spanBuf
	parent uint64
	name   string
	d      []time.Duration
}

func newTimer(sb *spanBuf, parent uint64, name string, n int) *timer {
	return &timer{sb: sb, parent: parent, name: name, d: make([]time.Duration, 0, n)}
}

// time runs f and keeps its duration divided by per, the number of
// calls f makes.
func (t *timer) time(per int, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	t.d = append(t.d, t1.Sub(t0)/time.Duration(per))
	t.sb.add(t.name, t.parent, 0, t0, t1)
	return err
}

func (t *timer) medianNS() float64 { return float64(percentile(t.d, 0.5)) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// wireRungs encodes and decodes a request and its response in memory,
// at the workload's sizes, per op type.
type wireRungs struct {
	frameNS, allocs [numOps]float64
}

func measureWire(sb *spanBuf, parent uint64) (wireRungs, error) {
	key, hi := makeKey(1), makeKey(1+scanLen)
	val := make([]byte, valueSize)
	encodeValue(val, key, 1, 1)
	scanKeys := make([][]byte, scanLen)
	for i := range scanKeys {
		scanKeys[i] = makeKey(i)
	}
	reqs := [numOps]wire.Request{
		opGet:  {Op: wire.OpGet, Tenant: tenant, Key: key},
		opPut:  {Op: wire.OpPut, Tenant: tenant, Key: key, Value: val},
		opScan: {Op: wire.OpScan, Tenant: tenant, Key: key, Hi: hi, Limit: scanLen},
	}
	resps := [numOps]wire.Response{
		opGet:  {Status: wire.StatusOK, Payload: val},
		opPut:  {Status: wire.StatusOK},
		opScan: {Status: wire.StatusOK},
	}
	var buf bytes.Buffer
	frame := func(op opKind) error {
		buf.Reset()
		if err := wire.WriteRequest(&buf, reqs[op]); err != nil {
			return err
		}
		if _, err := wire.ReadRequest(&buf); err != nil {
			return err
		}
		resp := resps[op]
		if op == opScan {
			// The server builds the payload pair by pair; the client
			// parses it back into pairs.
			resp.Payload = nil
			for _, k := range scanKeys {
				resp.Payload = wire.AppendScanPair(resp.Payload, k, val)
			}
		}
		if err := wire.WriteResponse(&buf, resp); err != nil {
			return err
		}
		got, err := wire.ReadResponse(&buf)
		if err != nil {
			return err
		}
		if op == opScan {
			kvs, err := wire.ParseScanResult(got.Payload)
			if err != nil || len(kvs) != scanLen {
				return fmt.Errorf("scan frame: %d pairs, %v", len(kvs), err)
			}
		} else if !bytes.Equal(got.Payload, resp.Payload) {
			return fmt.Errorf("%s frame: payload changed in transit", opNames[op])
		}
		return nil
	}
	var r wireRungs
	for op := opKind(0); op < numOps; op++ {
		per := 256
		if op == opScan {
			per = 16
		}
		const batches = 64
		t := newTimer(sb, parent, "wire."+opNames[op]+"_frame", batches)
		m0 := mallocs()
		for i := 0; i < batches; i++ {
			err := t.time(per, func() error {
				for j := 0; j < per; j++ {
					if err := frame(op); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return r, err
			}
		}
		r.allocs[op] = float64(mallocs()-m0) / float64(batches*per)
		r.frameNS[op] = t.medianNS()
	}
	return r, nil
}

// kvRungs are one variant's in-process kvstore figures.
type kvRungs struct {
	putNS, getNS, snapGetNS, scanNS float64
	putAllocs, getAllocs            float64
	bytesPerUserByte                float64
}

const (
	rungPuts = 4000
	rungGets = 20000
	// rungRounds is how many turns the variants take per phase,
	// alternating which goes first, so neither gains from running in a
	// warmer process.
	rungRounds = 8
	// rungScanTime bounds the scan phase; each variant runs at least
	// rungMinScans scans.
	rungScanTime = 2 * time.Second
	rungMinScans = 10
)

func variantKind(protection string) variant.Kind {
	if protection == "none" {
		return variant.PMDK
	}
	return variant.Kind(protection)
}

// kvSide is one variant's store under measurement.
type kvSide struct {
	b     *bench
	name  string
	env   *variant.Env
	st    *kvstore.Store
	ver   []uint32
	val   []byte
	g     *gen
	timer map[string]*timer
	alloc map[string]uint64
}

// measureKV builds a store of the workload's key count in a fresh pool
// per protection, then times puts (the update phase), gets, snapshot
// gets and bounded scans on each, the variants taking turns. Every
// value read is verified.
func (b *bench) measureKV(protections []string, sb *spanBuf, parent uint64) ([]kvRungs, error) {
	sides := make([]*kvSide, len(protections))
	defer func() {
		for _, sd := range sides {
			if sd != nil {
				sd.env.Pool.Close()
			}
		}
	}()
	for i, p := range protections {
		sd, err := b.newKVSide(p)
		if err != nil {
			return nil, fmt.Errorf("kvstore (%s): %w", p, err)
		}
		sides[i] = sd
	}
	type phase struct {
		name string
		ops  int
		op   func(sd *kvSide) error
	}
	phases := []phase{
		{"put", rungPuts, (*kvSide).put},
		{"get", rungGets, (*kvSide).get},
		{"snap_get", rungGets, (*kvSide).snapGet},
	}
	for _, ph := range phases {
		for _, sd := range sides {
			sd.timer[ph.name] = newTimer(sb, parent, "kvstore."+sd.name+"."+ph.name, ph.ops)
		}
		for round := 0; round < rungRounds; round++ {
			for j := range sides {
				sd := sides[(j+round)%len(sides)]
				m0 := mallocs()
				for i := 0; i < ph.ops/rungRounds; i++ {
					if err := ph.op(sd); err != nil {
						return nil, fmt.Errorf("kvstore %s (%s): %w", ph.name, sd.name, err)
					}
				}
				sd.alloc[ph.name] += mallocs() - m0
			}
		}
	}
	for _, sd := range sides {
		sd.timer["scan"] = newTimer(sb, parent, "kvstore."+sd.name+".scan", rungMinScans)
	}
	for start, round := time.Now(), 0; round < rungMinScans || time.Since(start) < rungScanTime; round++ {
		for j := range sides {
			sd := sides[(j+round)%len(sides)]
			if err := sd.scan(); err != nil {
				return nil, fmt.Errorf("kvstore scan (%s): %w", sd.name, err)
			}
		}
	}
	out := make([]kvRungs, len(sides))
	for i, sd := range sides {
		out[i] = kvRungs{
			putNS:            sd.timer["put"].medianNS(),
			getNS:            sd.timer["get"].medianNS(),
			snapGetNS:        sd.timer["snap_get"].medianNS(),
			scanNS:           sd.timer["scan"].medianNS(),
			putAllocs:        float64(sd.alloc["put"]) / rungPuts,
			getAllocs:        float64(sd.alloc["get"]) / rungGets,
			bytesPerUserByte: float64(sd.env.Pool.Stats().AllocatedBytes) / float64(b.wl.keys*(keySize+valueSize)),
		}
	}
	return out, nil
}

// newKVSide formats a pool of the given protection and preloads every
// key at version 0.
func (b *bench) newKVSide(protection string) (*kvSide, error) {
	env, err := variant.New(variantKind(protection), variant.Options{PoolSize: poolSize})
	if err != nil {
		return nil, err
	}
	sd := &kvSide{b: b, name: protection, env: env, ver: make([]uint32, b.wl.keys), val: make([]byte, valueSize),
		g: newGen(b.wl, 0, b.seed, b.perm), timer: map[string]*timer{}, alloc: map[string]uint64{}}
	if sd.st, err = kvstore.Open(env.RT); err == nil {
		val := make([]byte, valueSize)
		for k := 0; k < b.wl.keys && err == nil; k++ {
			encodeValue(val, b.keys[k], owner(k), 0)
			err = sd.st.Put(b.keys[k], val)
		}
	}
	if err != nil {
		env.Pool.Close()
		return nil, err
	}
	return sd, nil
}

func (sd *kvSide) put() error {
	k := sd.g.key()
	key := sd.b.keys[k]
	sd.ver[k]++
	encodeValue(sd.val, key, owner(k), sd.ver[k])
	return sd.timer["put"].time(1, func() error { return sd.st.Put(key, sd.val) })
}

func (sd *kvSide) get() error {
	k := sd.g.key()
	var v []byte
	var ok bool
	err := sd.timer["get"].time(1, func() (err error) { v, ok, err = sd.st.Get(sd.b.keys[k]); return })
	if err != nil {
		return err
	}
	return sd.check(v, ok, k)
}

func (sd *kvSide) snapGet() error {
	k := sd.g.key()
	var v []byte
	var ok bool
	err := sd.timer["snap_get"].time(1, func() (err error) {
		sn := sd.st.Snapshot()
		if v, ok, err = sn.Get(sd.b.keys[k]); err != nil {
			return err
		}
		return sn.Release()
	})
	if err != nil {
		return err
	}
	return sd.check(v, ok, k)
}

func (sd *kvSide) scan() error {
	lo := sd.g.r.IntN(sd.b.wl.keys - scanLen)
	got := 0
	err := sd.timer["scan"].time(1, func() error {
		return sd.st.Scan(sd.b.keys[lo], sd.b.keys[lo+scanLen], func(k, v []byte) bool {
			got++
			return got < scanLen
		})
	})
	if err == nil && got != scanLen {
		err = fmt.Errorf("%d pairs from %s, want %d", got, sd.b.keys[lo], scanLen)
	}
	return err
}

// check verifies a value read for key index k: the single goroutine
// wrote every version, so it must be exactly the last one.
func (sd *kvSide) check(v []byte, ok bool, k int) error {
	key := sd.b.keys[k]
	if !ok {
		return fmt.Errorf("key %s missing", key)
	}
	w, got, err := decodeValue(v, key)
	if err == nil && (w != owner(k) || got != sd.ver[k]) {
		err = fmt.Errorf("%w: key %s writer %d version %d, want %d", errStale, key, w, got, sd.ver[k])
	}
	return err
}

// pmemobjRungs are the transaction, allocator and adoption figures.
type pmemobjRungs struct {
	txNS, allocFreeNS, adoptMS float64
}

const (
	rungTx     = 5000
	rungAllocs = 256
	rungAdopts = 3
)

// measurePmemobj times one kvstore-entry-sized transaction (Begin, one
// Alloc, four 24-byte undo snapshots, Commit), an atomic alloc+free of
// the same size, and adopting image (a saved pool image of the
// workload's preloaded store) through variant.AdoptConfig and
// kvstore.Open.
func (b *bench) measurePmemobj(image []byte, sb *spanBuf, parent uint64) (pmemobjRungs, error) {
	var r pmemobjRungs
	kind := variantKind(b.protection)
	env, err := variant.New(kind, variant.Options{PoolSize: 32 << 20})
	if err != nil {
		return r, err
	}
	defer env.Pool.Close()
	pool := env.Pool
	entry := 2*8 + pool.OidPersistedSize() + keySize + valueSize
	target, err := pool.Alloc(256)
	if err != nil {
		return r, err
	}

	t := newTimer(sb, parent, "pmemobj.tx", rungTx)
	for i := 0; i < rungTx; i++ {
		var oid pmemobj.Oid
		err := t.time(1, func() error {
			tx := pool.Begin()
			var err error
			if oid, err = tx.Alloc(entry); err != nil {
				return errors.Join(err, tx.Abort())
			}
			for j := uint64(0); j < 4; j++ {
				if err := tx.AddRange(target.Off+64*j, 24); err != nil {
					return errors.Join(err, tx.Abort())
				}
			}
			return tx.Commit()
		})
		if err == nil {
			err = pool.Free(oid)
		}
		if err != nil {
			return r, fmt.Errorf("pmemobj tx: %w", err)
		}
	}
	r.txNS = t.medianNS()

	t = newTimer(sb, parent, "pmemobj.alloc_free", 64)
	for i := 0; i < 64; i++ {
		err := t.time(rungAllocs, func() error {
			for j := 0; j < rungAllocs; j++ {
				oid, err := pool.Alloc(entry)
				if err != nil {
					return err
				}
				if err := pool.Free(oid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return r, fmt.Errorf("pmemobj alloc/free: %w", err)
		}
	}
	r.allocFreeNS = t.medianNS()

	t = newTimer(sb, parent, "pmemobj.adopt", rungAdopts)
	for i := 0; i < rungAdopts; i++ {
		dev := pmem.NewPool("adopt", uint64(len(image)))
		copy(dev.Data(), image)
		var st *kvstore.Store
		var aenv *variant.Env
		err := t.time(1, func() (err error) {
			if aenv, err = variant.AdoptConfig(kind, dev, variant.Options{PoolSize: uint64(len(image))}); err != nil {
				return err
			}
			st, err = kvstore.Open(aenv.RT)
			return err
		})
		if err == nil {
			var n uint64
			if n, err = st.Count(); err == nil && n != uint64(b.wl.keys) {
				err = fmt.Errorf("adopted store holds %d keys, want %d", n, b.wl.keys)
			}
		}
		if aenv != nil {
			aenv.Pool.Close()
		}
		if err != nil {
			return r, fmt.Errorf("pmemobj adopt: %w", err)
		}
	}
	r.adoptMS = t.medianNS() / 1e6
	return r, nil
}
