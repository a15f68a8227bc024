// Package pmem models a byte-addressable persistent memory device.
//
// A Pool is the analog of a DAX-mapped PM file: a flat byte region with
// explicit persistence operations. Stores land in the "CPU cache" (the
// working image) immediately; they become durable only after a Flush of
// their range followed by a Fence — the CLWB/SFENCE discipline that
// PMDK's crash-consistency protocol is built on and that pmemcheck
// verifies.
//
// With tracking enabled the pool keeps a separate durable image and an
// event trace (stores, flushes, fences), which the pmemcheck package
// replays to explore crash states. With tracking disabled every store
// is immediately durable and the pool runs at full speed for the
// performance experiments.
//
// Concurrency. The fast path is lock-free: Store/Flush/Fence consult a
// single atomic gate word (tracking and telemetry bits) and return
// without touching any mutex when both are off, so independent
// goroutines hammering the device never contend. When tracking is on, pending flush ranges are striped
// across flushStripes cacheline-padded mutexes keyed by the flushed
// address, and the mode switch itself is guarded by an RWMutex: the
// data path holds it for read, Enable/DisableTracking, Crash and
// DurableImage hold it for write. The lock order is mode before
// stripe before storeMu; stripes are only ever locked together in
// ascending index order (by Fence), and a store holds storeMu alone.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Device telemetry: store/flush/fence rates split by whether the
// lock-free fast path (tracking off) or the tracked slow path served
// them. The device's data path is the hottest code in the repo (~5 ns
// per store+flush+fence), where even one extra predicted branch is
// measurable, so the telemetry gate shares the single atomic word the
// data path already loads for the tracking check (see Pool.gates):
// with both off, Store/Flush/Fence execute instruction-for-instruction
// what they did before telemetry existed. The telemetry bit is latched
// at pool creation; enable telemetry before building the device to get
// device-op counters (sppbench does this at startup).
var (
	devStores     = telemetry.Default.CounterVec("spp_dev_stores_total", "device stores by path", "path")
	devStoreBytes = telemetry.Default.CounterVec("spp_dev_store_bytes_total", "device store bytes by path", "path")
	devFlushes    = telemetry.Default.Counter("spp_dev_flushes_total", "cacheline flushes issued")
	devFences     = telemetry.Default.Counter("spp_dev_fences_total", "store fences issued")

	devStoresFast    = devStores.With("fast")
	devStoresTracked = devStores.With("tracked")
	devBytesFast     = devStoreBytes.With("fast")
	devBytesTracked  = devStoreBytes.With("tracked")

	// Batched-pipeline telemetry: flush requests a FlushAccum merged
	// away before reaching the device, and fences answered by another
	// committer's fence through the GroupFence combiner.
	devFlushCoalesced = telemetry.Default.Counter("spp_dev_flushes_coalesced_total", "flush requests merged by a flush accumulator")
	devFencesShared   = telemetry.Default.Counter("spp_dev_fences_shared_total", "fences satisfied by another goroutine's fence via the group combiner")
)

// CachelineSize is the flush granularity of the simulated device.
const CachelineSize = 64

// StoreAtomicity is the size in bytes up to which an aligned store is
// failure-atomic, matching the 8-byte powerfail atomicity of real PM.
const StoreAtomicity = 8

// flushStripes is the number of independent pending-flush sets. Flushes
// hash to a stripe by cacheline index so concurrent flushers of
// disjoint ranges do not share a lock even when tracking is on.
const flushStripes = 16

// ErrTrackingDisabled is returned by crash-simulation entry points when
// the pool is running in performance mode.
var ErrTrackingDisabled = errors.New("pmem: persistence tracking is disabled")

// TraceSink receives the persistence event stream of a tracked pool.
type TraceSink interface {
	// RecordStore is called after data is written at off. The slice is
	// owned by the sink.
	RecordStore(off uint64, data []byte)
	// RecordFlush is called when [off, off+size) is flushed.
	RecordFlush(off, size uint64)
	// RecordFence is called on a store fence.
	RecordFence()
}

type flushRange struct {
	off, size uint64
}

// flushStripe is one shard of the pending-flush set, padded so
// neighbouring stripes do not false-share a cacheline.
type flushStripe struct {
	mu      sync.Mutex
	pending []flushRange
	_       [40]byte
}

// Bits of Pool.gates.
const (
	gateTracking = 1 << iota // crash-simulation mode is on
	gateTelem                // count device ops into the telemetry registry
)

// Pool is a simulated persistent memory pool.
type Pool struct {
	data []byte
	name string

	// gates is the fast-path gate word: one atomic load on every
	// Store/Flush/Fence covers both the tracking check and the
	// telemetry check, so the all-off path costs exactly what a single
	// tracking flag did. gateTelem is latched from the global telemetry
	// flag at pool creation and never changes; a pool created before
	// telemetry.Enable does not count device ops, so consumers that
	// want them (sppbench, the bench experiments) enable telemetry
	// before building the device. gateTracking is toggled by
	// Enable/DisableTracking under the mode lock.
	gates atomic.Uint32

	// mode serializes tracking-mode transitions against the data path.
	// The fields below it are valid only while tracking is on.
	mode      sync.RWMutex
	persisted []byte // durable image
	sink      TraceSink
	stripes   [flushStripes]flushStripe

	// storeMu orders tracked stores against Fence copying flushed
	// cachelines into the durable image. A flushed line can hold bytes
	// another goroutine is storing at that moment (false sharing); the
	// hardware persists either value, but in Go the overlap is a data
	// race. Device-API stores hold it for read and Fence for write,
	// only while tracking is on. Stores through a vmem mapping write
	// the slice directly and are not covered.
	storeMu sync.RWMutex

	// Fence combiner (GroupFence): fenceEpoch counts combined fences
	// that have *started*; fenceMu serializes leaders. Only consulted
	// when tracking is on — that is the only mode where a fence does
	// real work worth sharing.
	fenceEpoch atomic.Uint64
	fenceMu    sync.Mutex
}

// NewPool returns an in-memory pool of the given size with tracking
// disabled.
func NewPool(name string, size uint64) *Pool {
	p := &Pool{data: make([]byte, size), name: name}
	if telemetry.On() {
		p.gates.Store(gateTelem)
	}
	return p
}

// OpenFile loads a pool image from path, or creates a zeroed pool of
// the given size if the file does not exist.
func OpenFile(path string, size uint64) (*Pool, error) {
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if uint64(len(b)) != size {
			return nil, fmt.Errorf("pmem: %s: image is %d bytes, want %d", path, len(b), size)
		}
		p := &Pool{data: b, name: path}
		if telemetry.On() {
			p.gates.Store(gateTelem)
		}
		return p, nil
	case os.IsNotExist(err):
		return NewPool(path, size), nil
	default:
		return nil, fmt.Errorf("pmem: open %s: %w", path, err)
	}
}

// SaveFile writes the working image to path.
func (p *Pool) SaveFile(path string) error {
	if err := os.WriteFile(path, p.data, 0o644); err != nil {
		return fmt.Errorf("pmem: save %s: %w", path, err)
	}
	return nil
}

// Name returns the pool's identifier.
func (p *Pool) Name() string { return p.name }

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return uint64(len(p.data)) }

// Data exposes the working image. It is the slice to hand to
// vmem.Mapping so the pool appears in the simulated address space.
func (p *Pool) Data() []byte { return p.data }

// EnableTracking switches the pool into crash-simulation mode: the
// current working image becomes the durable image and all subsequent
// stores/flushes/fences are reported to sink (which may be nil to track
// durability only). Like snapshotting real memory, the transition
// requires a quiescent data path: no store may be in flight while the
// image is copied.
func (p *Pool) EnableTracking(sink TraceSink) {
	p.mode.Lock()
	defer p.mode.Unlock()
	p.sink = sink
	p.persisted = make([]byte, len(p.data))
	copy(p.persisted, p.data)
	for i := range p.stripes {
		p.stripes[i].pending = nil
	}
	// Publish last: a fast-path reader that observes tracking=true is
	// about to block on mode.RLock and will see the fields above.
	p.gates.Store(p.gates.Load() | gateTracking)
}

// DisableTracking returns the pool to performance mode. The working
// image is kept; the durable image and any pending flushes are dropped.
func (p *Pool) DisableTracking() {
	p.mode.Lock()
	defer p.mode.Unlock()
	p.gates.Store(p.gates.Load() &^ gateTracking)
	p.sink = nil
	p.persisted = nil
	for i := range p.stripes {
		p.stripes[i].pending = nil
	}
}

// Tracking reports whether crash-simulation mode is on.
func (p *Pool) Tracking() bool {
	return p.gates.Load()&gateTracking != 0
}

// writeTracked is the tracking-mode store: b is written at off under
// storeMu held for read, then recorded. g is the caller's gate word.
func (p *Pool) writeTracked(g uint32, off uint64, b []byte) {
	p.storeMu.RLock()
	copy(p.data[off:off+uint64(len(b))], b)
	p.storeMu.RUnlock()
	p.recordStore(g, off, uint64(len(b)))
}

// recordStore notes a completed store at [off, off+size); g is the
// gate word loaded when the store began.
func (p *Pool) recordStore(g uint32, off, size uint64) {
	if g == 0 {
		return
	}
	if g&gateTracking == 0 {
		if g&gateTelem != 0 {
			devStoresFast.Inc()
			devBytesFast.Add(size)
		}
		return
	}
	if g&gateTelem != 0 {
		devStoresTracked.Inc()
		devBytesTracked.Add(size)
	}
	p.mode.RLock()
	sink := p.sink
	var cp []byte
	if p.Tracking() && sink != nil {
		cp = make([]byte, size)
		copy(cp, p.data[off:off+size])
	} else {
		sink = nil
	}
	p.mode.RUnlock()
	if sink != nil {
		sink.RecordStore(off, cp)
	}
}

// ObserveStore implements vmem.StoreObserver so that application stores
// through the simulated address space join the persistence trace.
func (p *Pool) ObserveStore(off, size uint64) {
	p.recordStore(p.gates.Load(), off, size)
}

// ReadU64 reads a little-endian 64-bit value at off.
func (p *Pool) ReadU64(off uint64) uint64 {
	b := p.data[off : off+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// WriteU64 writes a little-endian 64-bit value at off.
func (p *Pool) WriteU64(off uint64, v uint64) {
	g := p.gates.Load()
	if g&gateTracking != 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		p.writeTracked(g, off, b[:])
		return
	}
	b := p.data[off : off+8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
	p.recordStore(g, off, 8)
}

// WriteU64s writes consecutive little-endian 64-bit values starting at
// off — the bulk log-write path. With tracking off the whole run is one
// store (one gate check, one telemetry event of len(vals)*8 bytes); with
// tracking on it falls back to per-word WriteU64 so the persistence
// trace keeps the exact 8-byte store sequence pmemcheck's atomicity
// model expects.
func (p *Pool) WriteU64s(off uint64, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	g := p.gates.Load()
	if g&gateTracking != 0 {
		for i, v := range vals {
			p.WriteU64(off+uint64(i)*8, v)
		}
		return
	}
	b := p.data[off : off+uint64(len(vals))*8]
	for i, v := range vals {
		e := b[i*8 : i*8+8]
		e[0] = byte(v)
		e[1] = byte(v >> 8)
		e[2] = byte(v >> 16)
		e[3] = byte(v >> 24)
		e[4] = byte(v >> 32)
		e[5] = byte(v >> 40)
		e[6] = byte(v >> 48)
		e[7] = byte(v >> 56)
	}
	p.recordStore(g, off, uint64(len(vals))*8)
}

// ReadBytes copies size bytes at off into a fresh slice.
func (p *Pool) ReadBytes(off, size uint64) []byte {
	out := make([]byte, size)
	copy(out, p.data[off:off+size])
	return out
}

// WriteBytes writes b at off.
func (p *Pool) WriteBytes(off uint64, b []byte) {
	g := p.gates.Load()
	if g&gateTracking != 0 {
		p.writeTracked(g, off, b)
		return
	}
	copy(p.data[off:], b)
	p.recordStore(g, off, uint64(len(b)))
}

// Zero clears [off, off+size).
func (p *Pool) Zero(off, size uint64) {
	g := p.gates.Load()
	if g&gateTracking != 0 {
		p.writeTracked(g, off, make([]byte, size))
		return
	}
	region := p.data[off : off+size]
	for i := range region {
		region[i] = 0
	}
	p.recordStore(g, off, size)
}

// Flush initiates write-back of [off, off+size), extended to cacheline
// boundaries. The data is durable only after the next Fence.
func (p *Pool) Flush(off, size uint64) {
	if size == 0 {
		return
	}
	g := p.gates.Load()
	if g == 0 {
		return
	}
	if g&gateTelem != 0 {
		devFlushes.Inc()
	}
	if g&gateTracking == 0 {
		return
	}
	start := off &^ (CachelineSize - 1)
	end := (off + size + CachelineSize - 1) &^ (CachelineSize - 1)
	if end > uint64(len(p.data)) {
		end = uint64(len(p.data))
	}
	p.mode.RLock()
	if !p.Tracking() {
		p.mode.RUnlock()
		return
	}
	s := &p.stripes[(start/CachelineSize)%flushStripes]
	s.mu.Lock()
	s.pending = append(s.pending, flushRange{start, end - start})
	s.mu.Unlock()
	sink := p.sink
	p.mode.RUnlock()
	if sink != nil {
		sink.RecordFlush(start, end-start)
	}
}

// Fence makes all pending flushed ranges durable.
func (p *Pool) Fence() {
	g := p.gates.Load()
	if g == 0 {
		return
	}
	if g&gateTelem != 0 {
		devFences.Inc()
	}
	if g&gateTracking == 0 {
		return
	}
	p.mode.RLock()
	if !p.Tracking() {
		p.mode.RUnlock()
		return
	}
	// Take every stripe in ascending order so concurrent Fences are
	// serialized with each other (their persisted-image copies may
	// overlap) while leaving Flush on other stripes unblocked until
	// its own stripe is reached.
	for i := range p.stripes {
		p.stripes[i].mu.Lock()
	}
	retired := 0
	p.storeMu.Lock()
	for i := range p.stripes {
		s := &p.stripes[i]
		retired += len(s.pending)
		for _, r := range s.pending {
			copy(p.persisted[r.off:r.off+r.size], p.data[r.off:r.off+r.size])
		}
		s.pending = s.pending[:0]
	}
	p.storeMu.Unlock()
	telemetry.Flight.Record(telemetry.EvFence, uint64(retired), 0)
	for i := len(p.stripes) - 1; i >= 0; i-- {
		p.stripes[i].mu.Unlock()
	}
	sink := p.sink
	p.mode.RUnlock()
	if sink != nil {
		sink.RecordFence()
	}
}

// GroupFence is Fence with cross-goroutine combining — classic group
// commit. The caller's flushes must already be registered (Flush
// returned) before the call. If another goroutine's fence *started*
// after that point, it retired our pending lines too, so we return
// without fencing; otherwise we become the leader for every committer
// now piling up behind the combiner lock. Under contention N
// concurrent fences collapse to ~1.
//
// The epoch is bumped before the leader's Fence begins, and followers
// observe it only after acquiring the lock the leader holds for the
// whole fence — so an observed epoch change proves a fence ran
// entirely after the follower's flushes were registered.
func (p *Pool) GroupFence() {
	g := p.gates.Load()
	if g&gateTracking == 0 {
		// Fast mode: a fence is at most a telemetry bump; nothing worth
		// sharing, and the combiner would add an atomic + lock.
		p.Fence()
		return
	}
	e := p.fenceEpoch.Load()
	p.fenceMu.Lock()
	if p.fenceEpoch.Load() != e {
		p.fenceMu.Unlock()
		if g&gateTelem != 0 {
			devFencesShared.Inc()
		}
		return
	}
	p.fenceEpoch.Add(1)
	p.Fence()
	p.fenceMu.Unlock()
}

// FlushAccum coalesces the flush traffic of one commit epoch: requests
// are rounded to cachelines and merged with adjacent or duplicate
// lines, then issued to the device in one pass by Drain — the "flush
// once per line per fence" discipline PMDK's FLUSH macros implement
// with a dirty-line set. An accumulator belongs to one goroutine; the
// typical owner is a transaction commit or a redo publication.
//
// When coalescing is disabled (or the device is in the all-off fast
// mode, where Flush is free anyway) requests pass straight through, so
// callers need no mode branches.
type FlushAccum struct {
	p        *Pool
	coalesce bool
	lines    []flushRange // cacheline-rounded, merged opportunistically
	requests int          // raw requests this epoch
}

// NewFlushAccum returns an accumulator over p. With coalesce false the
// accumulator is a transparent pass-through.
func NewFlushAccum(p *Pool, coalesce bool) *FlushAccum {
	return &FlushAccum{p: p, coalesce: coalesce}
}

// Flush records a flush request for [off, off+size).
func (a *FlushAccum) Flush(off, size uint64) {
	if size == 0 {
		return
	}
	if !a.coalesce {
		a.p.Flush(off, size)
		return
	}
	if a.p.gates.Load() == 0 {
		// Flushes are free no-ops with tracking and telemetry both off;
		// recording them would only cost memory.
		return
	}
	start := off &^ (CachelineSize - 1)
	end := (off + size + CachelineSize - 1) &^ (CachelineSize - 1)
	if end > uint64(len(a.p.data)) {
		end = uint64(len(a.p.data))
	}
	a.requests++
	// Merge with the previous range when overlapping or adjacent — the
	// common shape (sequential log writes, block header pairs) without
	// paying for a sort on every request.
	if n := len(a.lines); n > 0 {
		l := &a.lines[n-1]
		if start <= l.off+l.size && l.off <= end {
			newEnd := l.off + l.size
			if end > newEnd {
				newEnd = end
			}
			if start < l.off {
				l.off = start
			}
			l.size = newEnd - l.off
			return
		}
	}
	a.lines = append(a.lines, flushRange{start, end - start})
}

// Drain merges the accumulated lines and issues one device flush per
// disjoint range. The epoch's coalescing win is counted into telemetry.
func (a *FlushAccum) Drain() {
	if len(a.lines) == 0 {
		a.requests = 0
		return
	}
	sort.Slice(a.lines, func(i, j int) bool { return a.lines[i].off < a.lines[j].off })
	issued := 0
	cur := a.lines[0]
	for _, r := range a.lines[1:] {
		if r.off <= cur.off+cur.size {
			if e := r.off + r.size; e > cur.off+cur.size {
				cur.size = e - cur.off
			}
			continue
		}
		a.p.Flush(cur.off, cur.size)
		issued++
		cur = r
	}
	a.p.Flush(cur.off, cur.size)
	issued++
	if a.p.gates.Load()&gateTelem != 0 && a.requests > issued {
		devFlushCoalesced.Add(uint64(a.requests - issued))
	}
	a.lines = a.lines[:0]
	a.requests = 0
}

// Persist is Flush followed by Fence, PMDK's pmemobj_persist.
func (p *Pool) Persist(off, size uint64) {
	p.Flush(off, size)
	p.Fence()
}

// Crash reverts the working image to the durable image, simulating a
// power failure. It requires tracking.
func (p *Pool) Crash() error {
	p.mode.Lock()
	defer p.mode.Unlock()
	if !p.Tracking() {
		return ErrTrackingDisabled
	}
	copy(p.data, p.persisted)
	for i := range p.stripes {
		p.stripes[i].pending = p.stripes[i].pending[:0]
	}
	return nil
}

// DurableImage returns a copy of the durable image. It requires
// tracking.
func (p *Pool) DurableImage() ([]byte, error) {
	p.mode.Lock()
	defer p.mode.Unlock()
	if !p.Tracking() {
		return nil, ErrTrackingDisabled
	}
	out := make([]byte, len(p.persisted))
	copy(out, p.persisted)
	return out, nil
}
