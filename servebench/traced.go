package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// noopRTTs is how many no-op round trips the server rung times.
const noopRTTs = 5000

// traced produces the per-layer metrics. It runs, in order:
//
//  1. an untraced session: one window for the tracing baseline, the
//     process costs and the client-side statuses, then the server's
//     no-op round trip;
//  2. the in-process layer rungs, with telemetry still off;
//  3. telemetry on, then a session whose clients trace every request,
//     for the hook, device and phase figures.
//
// Telemetry is enabled before the traced session's pools exist: device
// counters latch at pool creation and telemetry.Enable is process-wide.
func (b *bench) traced(opt options, w io.Writer) (*result, error) {
	rec := newRecorder()
	sb := rec.buf()
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	// 1. Untraced session.
	s, _, err := b.setup(0, false, true, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced setup: %w", err)
	}
	image := s.image
	ru0, ms0 := rusage(), mallocs()
	base := b.measure(s, opt.window, nil)
	ru1, ms1 := rusage(), mallocs()
	if err := s.close(); err != nil {
		return nil, err
	}
	attempted, served, errs, shed, bad := base.ops()
	baseTput := float64(served) / base.elapsed.Seconds()
	put("process.cpu_us_per_op", "us", us(ru1-ru0)/float64(served))
	put("process.allocs_per_op", "count", float64(ms1-ms0)/float64(served))
	put("server.shed_frac", "frac", float64(shed)/float64(attempted))
	put("server.error_frac", "frac", float64(errs)/float64(attempted))

	rtt, err := b.noopRTT(sb)
	if err != nil {
		return nil, fmt.Errorf("no-op round trip: %w", err)
	}
	put("server.noop_rtt_us", "us", rtt)

	// 2. In-process layer rungs.
	id, t0 := sb.open()
	wr, err := measureWire(sb, id)
	if err != nil {
		return nil, fmt.Errorf("wire rung: %w", err)
	}
	sb.close(id, "layer.wire", 0, t0)
	put("wire.get_frame_ns", "ns", wr.frameNS[opGet])
	put("wire.put_frame_ns", "ns", wr.frameNS[opPut])
	put("wire.scan_frame_ns", "ns", wr.frameNS[opScan])
	var allocs float64
	for op, f := range b.opMix() {
		allocs += f * wr.allocs[op]
	}
	put("wire.allocs_per_frame", "count", allocs)

	id, t0 = sb.open()
	kv, err := b.measureKV([]string{b.protection, "none"}, sb, id)
	if err != nil {
		return nil, fmt.Errorf("kvstore rung: %w", err)
	}
	sb.close(id, "layer.kvstore", 0, t0)
	runtime.GC()
	put("kvstore.put_ns", "ns", kv[0].putNS)
	put("kvstore.get_ns", "ns", kv[0].getNS)
	put("kvstore.snap_get_ns", "ns", kv[0].snapGetNS)
	put("kvstore.scan_ns", "ns", kv[0].scanNS)
	put("kvstore.put_allocs", "count", kv[0].putAllocs)
	put("kvstore.get_allocs", "count", kv[0].getAllocs)
	put("kvstore.bytes_per_user_byte", "ratio", kv[0].bytesPerUserByte)
	put("hooks.put_overhead", "ratio", kv[0].putNS/kv[1].putNS)
	put("hooks.get_overhead", "ratio", kv[0].getNS/kv[1].getNS)
	put("hooks.scan_overhead", "ratio", kv[0].scanNS/kv[1].scanNS)

	id, t0 = sb.open()
	pr, err := b.measurePmemobj(image, sb, id)
	if err != nil {
		return nil, fmt.Errorf("pmemobj rung: %w", err)
	}
	sb.close(id, "layer.pmemobj", 0, t0)
	image = nil
	runtime.GC()
	put("pmemobj.tx_ns", "ns", pr.txNS)
	put("pmemobj.alloc_free_ns", "ns", pr.allocFreeNS)
	put("pmemobj.adopt_ms", "ms", pr.adoptMS)
	sb.flush()

	// 3. Traced session.
	telemetry.Enable()
	s, _, err = b.setup(0, true, false, rec)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	c0, tr0 := telemetry.Default.Snapshot(), trace.Snapshot()
	win := b.measure(s, opt.window, rec)
	c1, tr1 := telemetry.Default.Snapshot(), trace.Snapshot()
	if err := s.close(); err != nil {
		return nil, err
	}
	tAttempted, tServed, tErrs, tShed, tBad := win.ops()
	put("trace.throughput_ratio", "ratio", float64(tServed)/win.elapsed.Seconds()/baseTput)

	d := c1.Delta(c0)
	ops := float64(tServed)
	puts := float64(len(win.res[0].lat[opPut]) + len(win.res[1].lat[opPut]))
	put("hooks.checks_per_op", "count", float64(d.Get("spp_hook_checkbound_total")+
		d.Get("spp_hook_checkbound_pm_total")+d.Get("spp_hook_memintr_total"))/ops)
	put("hooks.updatetags_per_op", "count", float64(d.Get("spp_hook_updatetag_total"))/ops)
	put("pmem.flushes_per_put", "count", float64(d.Get("spp_dev_flushes_total"))/puts)
	put("pmem.fences_per_put", "count", float64(d.Get("spp_dev_fences_total"))/puts)
	put("pmem.write_amp", "ratio", float64(d.Get(`spp_dev_store_bytes_total{path="fast"}`)+
		d.Get(`spp_dev_store_bytes_total{path="tracked"}`))/(puts*(keySize+valueSize)))

	// Phase shares are of the client-observed time of the window's
	// requests; what no server phase covers is unattributed.
	var observed time.Duration
	for _, r := range win.res {
		for _, l := range r.lat {
			for _, x := range l {
				observed += x
			}
		}
	}
	td := tr1.Delta(tr0)
	share := func(ns uint64) float64 { return float64(ns) / float64(observed) }
	put("trace.queue_share", "frac", share(td.Phase[trace.PhaseQueue]))
	put("trace.exec_share", "frac", share(td.Phase[trace.PhaseExec]))
	put("trace.tx_commit_share", "frac", share(td.Phase[trace.PhaseTxCommit]))
	put("trace.flush_share", "frac", share(td.Phase[trace.PhaseFlush]))
	put("trace.fence_share", "frac", share(td.Phase[trace.PhaseFence]))
	put("trace.maint_share", "frac", share(td.Phase[trace.PhaseMaint]))
	put("trace.unattributed_share", "frac", 1-share(td.Total))

	path := filepath.Join(b.out, "spans-"+b.wl.name+".jsonl")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# %d spans written to %s\n", len(rec.spans), path)
	for _, err := range []error{base.firstErr(), win.firstErr()} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench: first failure:", err)
		}
	}
	return &result{
		Correct:   bad+tBad == 0,
		Attempted: attempted + tAttempted,
		Failed:    errs + shed + bad + tErrs + tShed + tBad,
		Metrics:   m,
	}, nil
}

// opMix is the expected share of each op type across both connections
// (each connection weighted equally).
func (b *bench) opMix() [numOps]float64 {
	var f [numOps]float64
	for _, r := range b.wl.roles {
		f[opGet] += r.get / 2
		f[opPut] += r.put / 2
		f[opScan] += r.scan / 2
	}
	return f
}

// noopRTT returns the median loopback round trip, in microseconds, of a
// get of an absent key in an empty tenant, on a server of its own.
func (b *bench) noopRTT(sb *spanBuf) (float64, error) {
	srv, err := server.New(server.Config{Protection: b.protection, PoolSize: 8 << 20})
	if err != nil {
		return 0, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, errors.Join(err, srv.Close())
	}
	cl, err := client.Dial(addr, "noop")
	if err != nil {
		return 0, errors.Join(err, srv.Close())
	}
	id, t0 := sb.open()
	t := newTimer(sb, id, "server.noop_get", noopRTTs)
	key := makeKey(0)
	for i := 0; i < 2*noopRTTs; i++ {
		f := func() error {
			_, ok, err := cl.Get(key)
			if err == nil && ok {
				err = errors.New("absent key found")
			}
			return err
		}
		if i < noopRTTs { // the first half warms up
			err = f()
		} else {
			err = t.time(1, f)
		}
		if err != nil {
			break
		}
	}
	sb.close(id, "layer.server", 0, t0)
	err = errors.Join(err, cl.Close(), srv.Close())
	return t.medianNS() / 1e3, err
}

// rusage returns the process's user plus system CPU time.
func rusage() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only on a bad pointer or an unknown "who", neither
	// of which this call can pass.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
