package pmemobj

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pmem"
	"repro/internal/telemetry"
	"repro/internal/vmem"
)

// Knobs and Geometry alias the shared engine tuning surface (the
// single definition of every volatile knob and log-geometry field;
// see internal/engine).
type (
	Knobs    = engine.Knobs
	Geometry = engine.Geometry
)

// Config controls pool creation. The volatile knobs (embedded Knobs)
// shape rebuilt in-memory structure only; the embedded Geometry and
// the fields below are persisted in the pool header at creation.
type Config struct {
	// SPP enables the paper's extensions: 24-byte persisted oids and
	// tagged pointers from Direct.
	SPP bool
	// PackedOid implements the paper's future-work design (§VI-C): the
	// object size is encoded in the upper bits of the oid's offset
	// field, so SPP oids keep PMDK's 16-byte footprint and the PM
	// space overhead of Table III disappears. Implies SPP. The
	// offset/size split follows the pointer encoding: size in the top
	// tagBits, offset in the low addrBits.
	PackedOid bool
	// TagBits is the SPP tag width; core.DefaultTagBits when zero.
	TagBits uint
	// UUID fixes the pool UUID; a random one is chosen when zero.
	UUID uint64

	Geometry
	Knobs
}

func (c Config) withDefaults() Config {
	if c.TagBits == 0 {
		c.TagBits = core.DefaultTagBits
	}
	if c.NLanes == 0 {
		c.NLanes = DefaultNLanes
	}
	if c.RedoEntries == 0 {
		c.RedoEntries = DefaultRedoEntries
	}
	if c.UndoBytes == 0 {
		c.UndoBytes = DefaultUndoBytes
	}
	if c.UUID == 0 {
		c.UUID = rand.Uint64() | 1 // never zero
	}
	if c.NArenas == 0 {
		c.NArenas = DefaultNArenas
	}
	return c
}

// Errors returned by pool operations.
var (
	ErrCorruptPool   = errors.New("pmemobj: corrupt pool")
	ErrBadOid        = errors.New("pmemobj: invalid oid")
	ErrOutOfMemory   = errors.New("pmemobj: out of persistent memory")
	ErrObjectTooBig  = errors.New("pmemobj: object exceeds maximum size for tag width")
	ErrLogFull       = errors.New("pmemobj: lane log capacity exceeded")
	ErrNotInPool     = errors.New("pmemobj: address not inside pool")
	ErrTxActive      = errors.New("pmemobj: operation invalid inside a transaction")
	ErrRootMismatch  = errors.New("pmemobj: root object exists with different size")
	ErrPoolMapsHigh  = errors.New("pmemobj: pool mapped beyond SPP address-bit limit")
	ErrZeroSizeAlloc = errors.New("pmemobj: zero-size allocation")
)

// Pool is an open persistent object pool.
type Pool struct {
	dev  *pmem.Pool
	as   *vmem.AddressSpace
	base uint64 // virtual address of pool start

	uuid     uint64
	spp      bool
	packed   bool
	enc      core.Encoding
	oidSize  uint64
	heapOff  uint64
	heapEnd  uint64
	nLanes   int
	laneSize uint64
	redoCap  int
	undoCap  uint64

	nArenas      int
	laneAffinity bool
	mvcc         bool

	// Batched commit pipeline knobs (see DESIGN.md §12) and the
	// recycled per-commit scratch (flush accumulator + word buffer).
	rangeDedup    bool
	flushCoalesce bool
	groupFence    bool
	scratch       sync.Pool

	heap  heap
	lanes *laneQueue

	rootMu sync.Mutex
}

// Create formats dev as a fresh pool, maps it at base in as, and
// returns the open pool. base must be non-zero so that a null oid never
// resolves to mapped memory, and in SPP mode the whole pool must fit
// under the encoding's address-bit limit.
func Create(dev *pmem.Pool, as *vmem.AddressSpace, base uint64, cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	enc, err := core.NewEncoding(cfg.TagBits)
	if err != nil {
		return nil, err
	}
	if base == 0 {
		return nil, fmt.Errorf("pmemobj: pool base must be non-zero")
	}
	if cfg.SPP && base+dev.Size() > enc.MaxPoolEnd() {
		return nil, fmt.Errorf("%w: pool end %#x > limit %#x (tag bits %d)",
			ErrPoolMapsHigh, base+dev.Size(), enc.MaxPoolEnd(), cfg.TagBits)
	}

	laneSize := laneRedoBase + uint64(cfg.RedoEntries)*16 + undoDataOff + cfg.UndoBytes
	heapOff := align16(headerSize + uint64(cfg.NLanes)*laneSize)
	if dev.Size() < heapOff+minBlockSize {
		return nil, fmt.Errorf("pmemobj: pool of %d bytes too small for layout (need > %d)", dev.Size(), heapOff)
	}
	heapSize := dev.Size() - heapOff

	if cfg.PackedOid {
		cfg.SPP = true
	}
	oidSize := uint64(OidSizePMDK)
	if cfg.SPP && !cfg.PackedOid {
		oidSize = OidSizeSPP
	}

	dev.Zero(0, headerSize)
	dev.WriteU64(hVersion, poolVersion)
	dev.WriteU64(hUUID, cfg.UUID)
	dev.WriteU64(hPoolSize, dev.Size())
	dev.WriteU64(hOidSize, oidSize)
	dev.WriteU64(hTagBits, uint64(cfg.TagBits))
	dev.WriteU64(hHeapOff, heapOff)
	dev.WriteU64(hHeapSize, heapSize)
	dev.WriteU64(hNLanes, uint64(cfg.NLanes))
	dev.WriteU64(hLaneSize, laneSize)
	dev.WriteU64(hRedoEntries, uint64(cfg.RedoEntries))
	dev.WriteU64(hUndoBytes, cfg.UndoBytes)
	if cfg.PackedOid {
		dev.WriteU64(hPackedOid, 1)
	}

	// Clear lane control words; lane bodies need no initialization.
	for i := 0; i < cfg.NLanes; i++ {
		lane := headerSize + uint64(i)*laneSize
		dev.WriteU64(lane+laneRedoState, redoEmpty)
		dev.WriteU64(lane+laneRedoCount, 0)
		dev.WriteU64(lane+laneRedoExt, 0)
		undo := lane + laneRedoBase + uint64(cfg.RedoEntries)*16
		dev.WriteU64(undo+undoStateOff, undoInactive)
		dev.WriteU64(undo+undoUsedOff, 0)
	}

	// One free block spans the whole heap.
	dev.WriteU64(heapOff, heapSize&^(blockAlign-1))
	dev.WriteU64(heapOff+8, blockFree)
	dev.Persist(0, heapOff+blockHdrSize)

	// Magic last: its presence marks a validly formatted pool.
	dev.WriteU64(hMagic, poolMagic)
	dev.Persist(hMagic, 8)

	return open(dev, as, base, cfg)
}

// Open maps an existing pool at base and runs recovery: committed redo
// logs are re-applied, active undo logs are rolled back, uncommitted
// blocks are released, and the volatile allocator state is rebuilt.
func Open(dev *pmem.Pool, as *vmem.AddressSpace, base uint64) (*Pool, error) {
	return OpenConfig(dev, as, base, Config{})
}

// OpenConfig is Open with explicit volatile knobs (arena count, lane
// affinity). Persistent geometry always comes from the pool header;
// fields of cfg that describe persistent layout are ignored.
func OpenConfig(dev *pmem.Pool, as *vmem.AddressSpace, base uint64, cfg Config) (*Pool, error) {
	if dev.Size() < headerSize || dev.ReadU64(hMagic) != poolMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptPool)
	}
	if v := dev.ReadU64(hVersion); v != poolVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorruptPool, v)
	}
	return open(dev, as, base, cfg)
}

func open(dev *pmem.Pool, as *vmem.AddressSpace, base uint64, cfg Config) (*Pool, error) {
	tagBits := uint(dev.ReadU64(hTagBits))
	enc, err := core.NewEncoding(tagBits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptPool, err)
	}
	packed := dev.ReadU64(hPackedOid) == 1
	p := &Pool{
		dev:      dev,
		as:       as,
		base:     base,
		uuid:     dev.ReadU64(hUUID),
		packed:   packed,
		spp:      dev.ReadU64(hOidSize) == OidSizeSPP || packed,
		enc:      enc,
		oidSize:  dev.ReadU64(hOidSize),
		heapOff:  dev.ReadU64(hHeapOff),
		nLanes:   int(dev.ReadU64(hNLanes)),
		laneSize: dev.ReadU64(hLaneSize),
		redoCap:  int(dev.ReadU64(hRedoEntries)),
		undoCap:  dev.ReadU64(hUndoBytes),
	}
	p.heapEnd = p.heapOff + dev.ReadU64(hHeapSize)&^(blockAlign-1)
	if p.heapEnd > dev.Size() || p.heapOff >= p.heapEnd {
		return nil, fmt.Errorf("%w: bad geometry", ErrCorruptPool)
	}
	if !lanesFit(p.heapOff, dev.ReadU64(hNLanes), p.laneSize, dev.ReadU64(hRedoEntries), p.undoCap) {
		return nil, fmt.Errorf("%w: bad lane geometry", ErrCorruptPool)
	}
	if p.spp && base+dev.Size() > enc.MaxPoolEnd() {
		return nil, fmt.Errorf("%w: pool end %#x > limit %#x", ErrPoolMapsHigh, base+dev.Size(), enc.MaxPoolEnd())
	}

	p.nArenas = cfg.NArenas
	if p.nArenas <= 0 {
		p.nArenas = DefaultNArenas
	}
	p.laneAffinity = !cfg.DisableLaneAffinity
	p.mvcc = !cfg.NoMVCC
	p.rangeDedup = !cfg.DisableRangeDedup
	p.flushCoalesce = !cfg.DisableFlushCoalesce
	p.groupFence = !cfg.DisableGroupFence
	p.scratch.New = func() any {
		return &commitScratch{ac: pmem.NewFlushAccum(p.dev, p.flushCoalesce)}
	}

	if cfg.Telemetry {
		telemetry.Enable()
	}
	if cfg.FlightRecorder {
		telemetry.Flight.Enable()
	}
	if cfg.MetricsSample > 0 {
		telemetry.SetHookSampling(cfg.MetricsSample)
	}

	if err := p.recover(); err != nil {
		return nil, err
	}
	p.heap.init(p.heapOff, p.heapEnd, p.nArenas, !cfg.DisableBitmapAlloc)
	if err := p.heap.rebuild(p); err != nil {
		return nil, err
	}
	p.nArenas = len(p.heap.arenas) // after clamping to the heap size

	p.lanes = newLaneQueue(p.nLanes, p.laneAffinity)

	if cfg.Telemetry {
		p.registerTelemetry()
	}

	if as != nil {
		err := as.Map(&vmem.Mapping{Base: base, Data: dev.Data(), Name: dev.Name(), Observer: dev})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Close unmaps the pool from the address space.
func (p *Pool) Close() error {
	if p.as == nil {
		return nil
	}
	return p.as.Unmap(p.base)
}

// recover runs the lane recovery protocol (§5 of DESIGN.md): a lane
// whose undo log is active belongs to an uncommitted transaction — its
// prepared redo is discarded and the undo rolled back; otherwise a
// committed redo log is (re-)applied.
func (p *Pool) recover() error {
	for i := 0; i < p.nLanes; i++ {
		lane := p.laneOff(i)
		undo := p.undoOff(i)
		if p.dev.ReadU64(undo+undoStateOff) == undoActive {
			p.discardRedo(lane)
			if err := p.rollbackUndo(undo); err != nil {
				return err
			}
			metRecovered.Inc()
			telemetry.Flight.Record(telemetry.EvRecovery, uint64(i), 1)
			continue
		}
		if p.dev.ReadU64(lane+laneRedoState) == redoCommitted {
			p.applyRedo(lane)
			metRecovered.Inc()
			telemetry.Flight.Record(telemetry.EvRecovery, uint64(i), 2)
		}
	}
	return nil
}

// lanesFit reports whether nLanes lanes of laneSize bytes fit between
// the header and heapOff, each holding a non-empty redo log of redoCap
// entries followed by an undo log of undoCap bytes. Every product is
// bounded by a division first, so corrupt header words cannot overflow
// the check.
func lanesFit(heapOff, nLanes, laneSize, redoCap, undoCap uint64) bool {
	const fixed = laneRedoBase + undoDataOff
	if heapOff < headerSize || laneSize < fixed || redoCap == 0 {
		return false
	}
	logBytes := laneSize - fixed
	if redoCap > logBytes/16 || undoCap > logBytes-redoCap*16 {
		return false
	}
	return nLanes > 0 && nLanes <= (heapOff-headerSize)/laneSize
}

func (p *Pool) laneOff(i int) uint64 { return headerSize + uint64(i)*p.laneSize }

func (p *Pool) undoOff(i int) uint64 {
	return p.laneOff(i) + laneRedoBase + uint64(p.redoCap)*16
}

// UUID returns the pool UUID (low half).
func (p *Pool) UUID() uint64 { return p.uuid }

// SPP reports whether the pool persists SPP oids and tags pointers.
func (p *Pool) SPP() bool { return p.spp }

// PackedOid reports whether oid size fields are packed into the
// offset word (the future-work layout with zero PM space overhead).
func (p *Pool) PackedOid() bool { return p.packed }

// Encoding returns the pool's SPP encoding.
func (p *Pool) Encoding() core.Encoding { return p.enc }

// Base returns the pool's virtual base address.
func (p *Pool) Base() uint64 { return p.base }

// Device returns the underlying pmem device.
func (p *Pool) Device() *pmem.Pool { return p.dev }

// OidPersistedSize returns the persisted footprint of an oid in this
// pool: 24 bytes with SPP, 16 without. Persistent data structures must
// lay out embedded oids with this stride (the type system accounting
// for sizeof(PMEMoid) in §IV-F).
func (p *Pool) OidPersistedSize() uint64 { return p.oidSize }

// Direct is pmemobj_direct: it converts an oid into a native pointer.
// In SPP mode the pointer is tagged with the negated object size; in
// native mode it is the plain virtual address. A null or foreign oid
// yields 0.
func (p *Pool) Direct(oid Oid) uint64 {
	if oid.Off == 0 || oid.Pool != p.uuid {
		return 0
	}
	addr := p.base + oid.Off
	if !p.spp {
		return addr
	}
	return p.enc.MakeTagged(addr, oid.Size)
}

// OffsetOf translates a virtual address (already tag-cleaned) into a
// pool offset.
func (p *Pool) OffsetOf(addr uint64) (uint64, error) {
	if addr < p.base || addr-p.base >= p.dev.Size() {
		return 0, ErrNotInPool
	}
	return addr - p.base, nil
}

// PersistRange flushes [addr, addr+size) of pool memory, addr being a
// cleaned virtual address. It is pmemobj_persist for application data.
func (p *Pool) PersistRange(addr, size uint64) error {
	off, err := p.OffsetOf(addr)
	if err != nil {
		return err
	}
	p.dev.Persist(off, size)
	return nil
}

// PackOff encodes an (offset, size) pair into one offset word for the
// packed layout: size in the top tagBits, offset in the low addrBits —
// the same split as the pointer encoding.
func (p *Pool) PackOff(off, size uint64) uint64 {
	return size<<p.enc.AddrBits() | off
}

// UnpackOff splits a packed offset word.
func (p *Pool) UnpackOff(word uint64) (off, size uint64) {
	return word & (1<<p.enc.AddrBits() - 1), word >> p.enc.AddrBits()
}

// ReadOid reads a persisted oid at pool offset off, honouring the
// pool's persisted oid layout.
func (p *Pool) ReadOid(off uint64) Oid {
	oid := Oid{
		Pool: p.dev.ReadU64(off + oidPoolField),
		Off:  p.dev.ReadU64(off + oidOffField),
	}
	if p.packed {
		oid.Off, oid.Size = p.UnpackOff(oid.Off)
	} else if p.spp {
		oid.Size = p.dev.ReadU64(off + oidSizeField)
	}
	return oid
}

// WriteOid stores a persisted oid at pool offset off and persists it.
// In the classic SPP layout the size field is written before the
// offset so that a readable offset always implies a valid size; in the
// packed layout one 8-byte store publishes both atomically.
func (p *Pool) WriteOid(off uint64, oid Oid) {
	if p.packed {
		p.dev.WriteU64(off+oidPoolField, oid.Pool)
		p.dev.WriteU64(off+oidOffField, p.PackOff(oid.Off, oid.Size))
		p.dev.Persist(off, p.oidSize)
		return
	}
	if p.spp {
		p.dev.WriteU64(off+oidSizeField, oid.Size)
	}
	p.dev.WriteU64(off+oidPoolField, oid.Pool)
	p.dev.WriteU64(off+oidOffField, oid.Off)
	p.dev.Persist(off, p.oidSize)
}

// Root returns the root object oid, allocating it on first use
// (pmemobj_root). A larger requested size grows the root via realloc;
// requesting a smaller or equal size returns the existing root.
func (p *Pool) Root(size uint64) (Oid, error) {
	p.rootMu.Lock()
	defer p.rootMu.Unlock()
	cur := p.ReadOid(hRoot)
	curSize := p.dev.ReadU64(hRootSize)
	if !cur.IsNull() {
		if size <= curSize {
			if !p.spp {
				cur.Size = curSize
			}
			return cur, nil
		}
		if err := p.ReallocAt(hRoot, size); err != nil {
			return OidNull, err
		}
	} else {
		if err := p.AllocAt(hRoot, size); err != nil {
			return OidNull, err
		}
	}
	p.dev.WriteU64(hRootSize, size)
	p.dev.Persist(hRootSize, 8)
	out := p.ReadOid(hRoot)
	if !p.spp {
		out.Size = size
	}
	return out, nil
}

// UserSlot returns the reserved sanitizer-metadata oid (used by the
// SafePM baseline to find its persisted shadow region).
func (p *Pool) UserSlot() Oid { return p.ReadOid(hUserSlot) }

// SetUserSlot stores the sanitizer-metadata oid.
func (p *Pool) SetUserSlot(oid Oid) { p.WriteOid(hUserSlot, oid) }

// validateOid checks that oid refers to a live allocation and returns
// its block offset.
func (p *Pool) validateOid(oid Oid) (uint64, error) {
	if oid.IsNull() || oid.Pool != p.uuid {
		return 0, fmt.Errorf("%w: %v", ErrBadOid, oid)
	}
	if oid.Off < p.heapOff+blockHdrSize || oid.Off >= p.heapEnd {
		return 0, fmt.Errorf("%w: %v outside heap", ErrBadOid, oid)
	}
	blk := oid.Off - blockHdrSize
	state := p.dev.ReadU64(blk + 8)
	if state != blockAllocated && state != blockUncommitted {
		return 0, fmt.Errorf("%w: %v not allocated (state %d)", ErrBadOid, oid, state)
	}
	return blk, nil
}

// UsableSize returns the payload capacity of the live allocation oid
// names, read from its block header: at least the size it was
// allocated with. Callers check persisted element counts against it
// before trusting them. A null, foreign, freed or out-of-heap oid, or a
// block header whose size does not fit the heap, is an error.
func (p *Pool) UsableSize(oid Oid) (uint64, error) {
	blk, err := p.validateOid(oid)
	if err != nil {
		return 0, err
	}
	size := p.dev.ReadU64(blk)
	if size < minBlockSize || size > p.heapEnd-blk {
		return 0, fmt.Errorf("%w: block at %#x has size %d", ErrCorruptPool, blk, size)
	}
	return size - blockHdrSize, nil
}

// ForEachAllocated walks the heap and calls fn with the payload offset
// and payload size of every live allocation. Sanitizer baselines use
// it to rebuild their volatile or shadow metadata after a restart. The
// walk holds every arena lock; blocks with an in-flight publication
// are skipped (their state is not yet settled).
func (p *Pool) ForEachAllocated(fn func(payloadOff, payloadSize uint64) error) error {
	p.heap.lockAll()
	defer p.heap.unlockAll()
	return p.heap.walkLocked(p, func(off, size, state uint64, inFlux bool) error {
		if state == blockAllocated && !inFlux {
			return fn(off+blockHdrSize, size-blockHdrSize)
		}
		return nil
	})
}

// errStopWalk is a sentinel that ends a heap walk early with success.
var errStopWalk = errors.New("pmemobj: stop walk")

// ObjectAt resolves the live allocation enclosing pool offset off —
// or, for a one-past-the-end overflow, the allocation ending exactly
// at off. It feeds the safety-violation audit trail, so it runs only
// on the (rare) violation path; the whole-heap walk under all arena
// locks is acceptable there.
func (p *Pool) ObjectAt(off uint64) (payloadOff, payloadSize uint64, ok bool) {
	if off < p.heapOff || off > p.heapEnd {
		return 0, 0, false
	}
	p.heap.lockAll()
	defer p.heap.unlockAll()
	err := p.heap.walkLocked(p, func(blk, size, state uint64, inFlux bool) error {
		if state != blockAllocated {
			return nil
		}
		pOff := blk + blockHdrSize
		if off >= pOff && off <= blk+size {
			payloadOff, payloadSize, ok = pOff, size-blockHdrSize, true
			return errStopWalk
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopWalk) {
		return 0, 0, false
	}
	return payloadOff, payloadSize, ok
}

// HeapBounds returns the heap's [start, end) offsets within the pool.
func (p *Pool) HeapBounds() (start, end uint64) { return p.heapOff, p.heapEnd }

// Stats reports allocator occupancy, for the space-overhead experiment
// (Table III).
type Stats struct {
	// HeapBytes is the total heap capacity.
	HeapBytes uint64
	// AllocatedBytes is the sum of live block sizes, headers included.
	AllocatedBytes uint64
	// AllocatedObjects is the number of live allocations.
	AllocatedObjects uint64
	// FreeBytes is the remaining heap capacity.
	FreeBytes uint64
}

// Stats returns current allocator occupancy. The counters are
// maintained atomically, so this never blocks the allocation path.
func (p *Pool) Stats() Stats {
	used := p.heap.usedBytes.Load()
	return Stats{
		HeapBytes:        p.heapEnd - p.heapOff,
		AllocatedBytes:   used,
		AllocatedObjects: p.heap.usedBlocks.Load(),
		FreeBytes:        p.heapEnd - p.heapOff - used,
	}
}

// NArenas returns the number of allocator arenas the heap is running
// with (after clamping to the heap size).
func (p *Pool) NArenas() int { return p.nArenas }

// LaneAffinity reports whether the worker-affine lane cache is active.
func (p *Pool) LaneAffinity() bool { return p.laneAffinity }

// MVCC reports whether kvstore snapshot isolation is active for stores
// opened over this pool.
func (p *Pool) MVCC() bool { return p.mvcc }

// RangeDedup reports whether AddRange interval dedup is active.
func (p *Pool) RangeDedup() bool { return p.rangeDedup }

// FlushCoalesce reports whether commit-path flush coalescing is active.
func (p *Pool) FlushCoalesce() bool { return p.flushCoalesce }

// GroupFence reports whether commit fences go through the device's
// group combiner.
func (p *Pool) GroupFence() bool { return p.groupFence }
