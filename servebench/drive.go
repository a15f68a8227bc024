package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/client"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	tenant   = "bench"
	poolSize = 128 << 20
	// readBack is how many preloaded keys are read back after the
	// restart in setup.
	readBack = 2000
)

// bench holds one invocation's fixed inputs.
type bench struct {
	wl         workload
	seed       uint64
	protection string
	out        string
	// tmp holds the temporary data directories of setup.
	tmp  string
	keys [][]byte
	perm []int32
}

func newBench(wl workload, seed uint64, protection, out string) *bench {
	b := &bench{wl: wl, seed: seed, protection: protection, out: out,
		tmp: filepath.Join(out, "tmp"), keys: make([][]byte, wl.keys)}
	for i := range b.keys {
		b.keys[i] = makeKey(i)
	}
	if wl.zipf {
		b.perm = keyPerm(wl.keys)
	}
	return b
}

func (b *bench) serverConfig(dir string) server.Config {
	return server.Config{Protection: b.protection, PoolSize: poolSize, DataDir: dir}
}

// session is a served, preloaded tenant and the two connections that
// drive it.
type session struct {
	srv   *server.Server
	dir   string
	conns [2]*client.Client
	led   *ledger
	gens  [2]*gen
	// image is the tenant's pool image as saved at the graceful close
	// in setup, kept only when setup was asked to keep it.
	image []byte
}

func (s *session) close() error {
	for _, c := range s.conns {
		if c != nil {
			c.Close()
		}
	}
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

func dialBoth(addr string, opts ...client.Option) ([2]*client.Client, error) {
	var cs [2]*client.Client
	for c := range cs {
		cl, err := client.Dial(addr, tenant, opts...)
		if err != nil {
			for _, d := range cs[:c] {
				d.Close()
			}
			return cs, err
		}
		cs[c] = cl
	}
	return cs, nil
}

// both runs f once per connection concurrently and joins the errors.
func both(f func(c int) error) error {
	var errs [2]error
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = f(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// setup starts a server over a fresh data directory, preloads every
// key, closes the server gracefully and starts a second one over the
// saved image, reads a seeded sample of keys back, and warms up. The
// returned session serves the recovered tenant. Verification failures
// in setup are returned as errors.
func (b *bench) setup(idx int, traced, keepImage bool, rec *recorder) (*session, time.Duration, error) {
	sb := rec.buf()
	defer sb.flush()
	root, t0 := sb.open()
	start := time.Now()
	dir, err := os.MkdirTemp(b.tmp, "data-")
	if err != nil {
		return nil, 0, err
	}
	s := &session{dir: dir, led: newLedger(b.wl.keys)}
	fail := func(err error) (*session, time.Duration, error) {
		return nil, 0, errors.Join(err, s.close())
	}

	// First life: format the tenant and preload it.
	id, ts := sb.open()
	srv, err := server.New(b.serverConfig(dir))
	if err != nil {
		return fail(err)
	}
	s.srv = srv
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	if s.conns, err = dialBoth(addr); err != nil {
		return fail(err)
	}
	err = both(func(c int) error {
		v := make([]byte, valueSize)
		for k := c; k < b.wl.keys; k += 2 {
			encodeValue(v, b.keys[k], byte(c), 0)
			if err := s.conns[c].Put(b.keys[k], v); err != nil {
				return fmt.Errorf("preload key %d: %w", k, err)
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	sb.close(id, "setup.preload", root, ts)

	// Graceful close saves the image; the second server adopts it.
	id, ts = sb.open()
	for c := range s.conns {
		s.conns[c].Close()
		s.conns[c] = nil
	}
	err = srv.Close()
	s.srv = nil
	if err != nil {
		return fail(err)
	}
	if keepImage {
		if s.image, err = os.ReadFile(filepath.Join(dir, tenant+".pool")); err != nil {
			return fail(err)
		}
	}
	if s.srv, err = server.New(b.serverConfig(dir)); err != nil {
		return fail(err)
	}
	if addr, err = s.srv.Listen("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	var opts []client.Option
	if traced {
		opts = append(opts, client.WithTracing(1))
	}
	if s.conns, err = dialBoth(addr, opts...); err != nil {
		return fail(err)
	}
	n, err := s.conns[0].Count()
	if err != nil {
		return fail(fmt.Errorf("count after restart: %w", err))
	}
	if n != uint64(b.wl.keys) {
		return fail(fmt.Errorf("count after restart: %d keys, want %d", n, b.wl.keys))
	}
	// The server holds the adopted image in memory and saves it again
	// at close. Dropping the file now keeps the kernel from writing its
	// dirty pages back while the window runs.
	if err := os.Remove(filepath.Join(dir, tenant+".pool")); err != nil {
		return fail(err)
	}
	sb.close(id, "setup.restart", root, ts)

	id, ts = sb.open()
	if err := b.readBack(s.conns[0], idx); err != nil {
		return fail(err)
	}
	sb.close(id, "setup.readback", root, ts)

	// Collect the garbage earlier setups and the first server left, so
	// no window starts by sweeping it.
	runtime.GC()
	id, ts = sb.open()
	for c := range s.gens {
		s.gens[c] = newGen(b.wl, c, b.seed^uint64(idx+1)<<32, b.perm)
	}
	var warm [2]connResult
	both(func(c int) error {
		b.loop(s, c, time.Time{}, b.wl.warmOps(c), nil, 0, &warm[c])
		return nil
	})
	for c := range warm {
		if r := &warm[c]; r.errs+r.shed+r.bad > 0 {
			return fail(fmt.Errorf("warm-up: %d errors, %d shed, %d bad values: %v", r.errs, r.shed, r.bad, r.firstErr))
		}
	}
	sb.close(id, "setup.warmup", root, ts)
	sb.close(root, "setup", 0, t0)
	return s, time.Since(start), nil
}

// readBack checks a seeded sample of preloaded keys against the exact
// bytes the preload wrote.
func (b *bench) readBack(cl *client.Client, idx int) error {
	r := rand.New(rand.NewPCG(b.seed, 0xbacc+uint64(idx)))
	want := make([]byte, valueSize)
	for i := 0; i < min(readBack, b.wl.keys); i++ {
		k := r.IntN(b.wl.keys)
		v, ok, err := cl.Get(b.keys[k])
		if err != nil {
			return fmt.Errorf("read-back key %d: %w", k, err)
		}
		encodeValue(want, b.keys[k], owner(k), 0)
		if !ok || string(v) != string(want) {
			return fmt.Errorf("read-back key %d: value differs from the preloaded one", k)
		}
	}
	return nil
}

// connResult is what one connection saw in a loop.
type connResult struct {
	lat                        [numOps][]time.Duration
	attempted, errs, shed, bad int
	firstErr                   error
	end                        time.Time
}

func (r *connResult) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// loop drives connection c closed-loop: each op is sent after the
// previous reply. It stops at deadline (when non-zero) or after maxOps
// ops (when positive), or on a transport error. Every reply is
// verified; latencies of served ops are kept per op type. With a span
// buffer every call is recorded as a child of parent.
func (b *bench) loop(s *session, c int, deadline time.Time, maxOps int, sb *spanBuf, parent uint64, r *connResult) {
	defer func() { r.end = time.Now() }()
	cl, g := s.conns[c], s.gens[c]
	val := make([]byte, valueSize)
	var before [scanLen]uint32
	for n := 0; maxOps <= 0 || n < maxOps; n++ {
		op, k := g.next()
		t0 := time.Now()
		if !deadline.IsZero() && !t0.Before(deadline) {
			return
		}
		key := b.keys[k]
		var err, bad error
		switch op {
		case opGet:
			acked := s.led.acked[k].Load()
			var v []byte
			var ok bool
			v, ok, err = cl.Get(key)
			switch {
			case err != nil:
			case !ok:
				bad = fmt.Errorf("get %s: key missing", key)
			default:
				bad = s.led.check(v, k, key, acked)
			}
		case opPut:
			ver := s.led.issued[k].Load() + 1
			s.led.issued[k].Store(ver)
			encodeValue(val, key, byte(c), ver)
			if err = cl.Put(key, val); err == nil {
				s.led.acked[k].Store(ver)
			}
		case opScan:
			for j := range before {
				before[j] = s.led.acked[k+j].Load()
			}
			var kvs []wire.KV
			kvs, err = cl.Scan(key, b.keys[k+scanLen], scanLen)
			if err == nil {
				bad = b.checkScan(s.led, kvs, k, before[:])
			}
		}
		t1 := time.Now()
		r.attempted++
		switch {
		case errors.Is(err, client.ErrOverloaded):
			r.shed++
			r.fail(err)
		case err != nil:
			r.errs++
			r.fail(err)
			var se *client.ServerError
			if !errors.As(err, &se) {
				return // the connection is unusable
			}
		default:
			if bad != nil {
				r.bad++
				r.fail(bad)
			}
			r.lat[op] = append(r.lat[op], t1.Sub(t0))
			sb.add(opNames[op], parent, uint64(c)<<32|uint64(r.attempted), t0, t1)
		}
	}
}

// checkScan verifies a scan of [keys[lo], keys[lo+scanLen]) with limit
// scanLen: sorted, inside the range, within the limit, complete (no key
// is ever deleted), and every value verified like a get's.
func (b *bench) checkScan(led *ledger, kvs []wire.KV, lo int, acked []uint32) error {
	if len(kvs) > scanLen {
		return fmt.Errorf("scan from %s: %d pairs over limit %d", b.keys[lo], len(kvs), scanLen)
	}
	loKey, hiKey := string(b.keys[lo]), string(b.keys[lo+scanLen])
	for j, kv := range kvs {
		k := string(kv.Key)
		if k < loKey || k >= hiKey {
			return fmt.Errorf("scan from %s: key %s outside [%s,%s)", loKey, k, loKey, hiKey)
		}
		if j > 0 && k <= string(kvs[j-1].Key) {
			return fmt.Errorf("scan from %s: key %s not after %s", loKey, k, kvs[j-1].Key)
		}
	}
	if len(kvs) != scanLen {
		return fmt.Errorf("scan from %s: %d pairs, want %d", loKey, len(kvs), scanLen)
	}
	for j, kv := range kvs {
		if err := led.check(kv.Value, lo+j, kv.Key, acked[j]); err != nil {
			return fmt.Errorf("scan from %s: %w", loKey, err)
		}
	}
	return nil
}

// window is one measured closed-loop window over both connections.
type window struct {
	res     [2]connResult
	elapsed time.Duration
}

func (w *window) ops() (attempted, served, errs, shed, bad int) {
	for _, r := range w.res {
		attempted += r.attempted
		errs += r.errs
		shed += r.shed
		bad += r.bad
		for _, l := range r.lat {
			served += len(l)
		}
	}
	return
}

func (w *window) lat(op opKind) []time.Duration {
	return append(append([]time.Duration(nil), w.res[0].lat[op]...), w.res[1].lat[op]...)
}

func (w *window) firstErr() error {
	return errors.Join(w.res[0].firstErr, w.res[1].firstErr)
}

// measure runs both connections for d and returns what they saw. The
// window ends when the slower connection's last op returns.
func (b *bench) measure(s *session, d time.Duration, rec *recorder) *window {
	w := &window{}
	var sbs [2]*spanBuf
	for c := range sbs {
		sbs[c] = rec.buf()
	}
	id, t0 := sbs[0].open()
	start := time.Now()
	deadline := start.Add(d)
	both(func(c int) error {
		b.loop(s, c, deadline, 0, sbs[c], id, &w.res[c])
		return nil
	})
	end := w.res[0].end
	if w.res[1].end.After(end) {
		end = w.res[1].end
	}
	w.elapsed = end.Sub(start)
	sbs[0].close(id, "window", 0, t0)
	for _, sb := range sbs {
		sb.flush()
	}
	return w
}
