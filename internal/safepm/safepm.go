// Package safepm reimplements the SafePM baseline (Bozdoğan et al.,
// EuroSys'22): an AddressSanitizer-style shadow-memory sanitizer for
// persistent memory, used by the paper as the state-of-the-art
// comparison point.
//
// One shadow byte describes eight pool bytes (0 = fully addressable,
// 1..7 = only the first k bytes addressable, 0xFF = poisoned). The
// shadow region is itself a PM object inside the pool, persisted with
// the same flush discipline as application data — SafePM's key claim —
// and rebuilt from per-allocation headers after a restart. Every
// allocation is padded with poisoned redzones; every dereference reads
// the shadow, which is exactly the extra PM traffic that makes SafePM
// 2x-8x slower than SPP in the paper's figures.
package safepm

import (
	"errors"
	"fmt"

	"repro/internal/hooks"
	"repro/internal/pmemobj"
	"repro/internal/vmem"
)

const (
	// RedzoneSize is the poisoned padding on each side of an object.
	RedzoneSize = 16
	// shadowScale maps 8 application bytes to 1 shadow byte.
	shadowScale = 8
	// poisoned marks an 8-byte granule as non-addressable.
	poisoned = 0xFF
	// rzMagic identifies a SafePM left redzone header.
	rzMagic = 0x5AFE9A6E5AFE9A6E
)

// ShadowLatencyLoops models the PM-media read latency of a shadow
// lookup. SafePM's shadow region resides in persistent memory, so on
// the paper's Optane testbed every ASan check pays a PM read (~2-3x a
// DRAM read); in this DRAM-backed simulation the same lookup is nearly
// free, which would understate SafePM's overhead. Each shadow
// consultation therefore spins for this many iterations (~15-20 ns at
// the default, the cached-PM vs L1 gap). Set to 0 to ablate the medium
// model.
var ShadowLatencyLoops = 48

var latencySink uint64

// pmLatency charges the simulated PM-media cost of one metadata access.
func pmLatency() {
	s := latencySink
	for i := 0; i < ShadowLatencyLoops; i++ {
		s += uint64(i) ^ s<<1
	}
	latencySink = s
}

// Runtime is the SafePM hooks implementation.
type Runtime struct {
	pool      *pmemobj.Pool
	as        *vmem.AddressSpace
	shadowOff uint64 // pool offset of the shadow region
	shadowLen uint64
}

var _ hooks.Runtime = (*Runtime)(nil)

// Attach initializes (or re-opens) SafePM on a native-mode pool: the
// persistent shadow region is allocated on first use and rebuilt from
// the heap's redzone headers on every attach, restoring crash
// consistency for the safety metadata.
func Attach(pool *pmemobj.Pool, as *vmem.AddressSpace) (*Runtime, error) {
	if pool.SPP() {
		return nil, errors.New("safepm: requires a native-mode pool (SafePM and SPP are exclusive)")
	}
	dev := pool.Device()
	shadowLen := (dev.Size() + shadowScale - 1) / shadowScale
	slot := pool.UserSlot()
	if slot.IsNull() {
		oid, err := pool.Alloc(shadowLen)
		if err != nil {
			return nil, fmt.Errorf("safepm: shadow allocation: %w", err)
		}
		pool.SetUserSlot(oid)
		slot = oid
	}
	rt := &Runtime{pool: pool, as: as, shadowOff: slot.Off, shadowLen: shadowLen}
	if err := rt.rebuild(); err != nil {
		return nil, err
	}
	return rt, nil
}

// rebuild reconstructs the shadow from persistent state: free space is
// poisoned; allocations carrying a SafePM redzone header expose only
// their user range; foreign allocations (the shadow itself, pmemobj
// internals) stay fully addressable.
func (rt *Runtime) rebuild() error {
	dev := rt.pool.Device()
	heapStart, heapEnd := rt.pool.HeapBounds()
	// Poison the whole heap, then carve out live allocations.
	rt.setShadow(heapStart, heapEnd-heapStart, poisoned)
	err := rt.pool.ForEachAllocated(func(off, size uint64) error {
		if off == rt.shadowOff {
			rt.unpoison(off, size)
			return nil
		}
		if size >= 2*RedzoneSize && dev.ReadU64(off) == rzMagic {
			userSize := dev.ReadU64(off + 8)
			if userSize <= size-2*RedzoneSize {
				rt.unpoison(off+RedzoneSize, userSize)
				return nil
			}
		}
		// Not a SafePM allocation: no redzone information, expose it
		// fully (ASan behaviour for unknown memory).
		rt.unpoison(off, size)
		return nil
	})
	if err != nil {
		return err
	}
	dev.Persist(rt.shadowOff, rt.shadowLen)
	return nil
}

// shadowIndex returns the shadow byte offset covering pool offset off.
func (rt *Runtime) shadowIndex(off uint64) uint64 { return rt.shadowOff + off/shadowScale }

// unpoison marks [off, off+size) addressable, with ASan partial-byte
// semantics at the tail.
func (rt *Runtime) unpoison(off, size uint64) {
	dev := rt.pool.Device()
	data := dev.Data()
	full := size / shadowScale
	start := rt.shadowIndex(off)
	for i := uint64(0); i < full; i++ {
		data[start+i] = 0
	}
	if rem := size % shadowScale; rem != 0 {
		data[start+full] = byte(rem)
	}
	granules := (size + shadowScale - 1) / shadowScale
	dev.ObserveStore(start, granules)
	dev.Persist(start, granules)
}

// setShadow fills the shadow for [off, off+size) with v.
func (rt *Runtime) setShadow(off, size uint64, v byte) {
	pmLatency() // shadow updates write persistent memory
	dev := rt.pool.Device()
	data := dev.Data()
	start := rt.shadowIndex(off)
	granules := (size + shadowScale - 1) / shadowScale
	for i := uint64(0); i < granules; i++ {
		data[start+i] = v
	}
	dev.ObserveStore(start, granules)
	dev.Persist(start, granules)
}

// poison marks [off, off+size) non-addressable.
func (rt *Runtime) poison(off, size uint64) { rt.setShadow(off, size, poisoned) }

// Name implements hooks.Runtime.
func (rt *Runtime) Name() string { return "safepm" }

// Pool implements hooks.Runtime.
func (rt *Runtime) Pool() *pmemobj.Pool { return rt.pool }

// Space implements hooks.Runtime.
func (rt *Runtime) Space() *vmem.AddressSpace { return rt.as }

// Root implements hooks.Runtime: the root object is padded with
// redzones like every allocation.
func (rt *Runtime) Root(size uint64) (pmemobj.Oid, error) {
	inner, err := rt.pool.Root(size + 2*RedzoneSize)
	if err != nil {
		return pmemobj.OidNull, err
	}
	rt.writeHeader(inner.Off, size)
	return pmemobj.Oid{Pool: inner.Pool, Off: inner.Off + RedzoneSize, Size: size}, nil
}

// writeHeader stamps the left redzone and sets the shadow for an
// allocation whose user range is [innerOff+RedzoneSize, +size).
func (rt *Runtime) writeHeader(innerOff, size uint64) {
	dev := rt.pool.Device()
	dev.WriteU64(innerOff, rzMagic)
	dev.WriteU64(innerOff+8, size)
	dev.Persist(innerOff, 16)
	rt.poison(innerOff, RedzoneSize)
	// Poison the right redzone from the next granule boundary, then
	// unpoison the user range last: its partial tail granule encodes
	// how many bytes of the shared granule are addressable.
	userStart := innerOff + RedzoneSize
	rzStart := (userStart + size + shadowScale - 1) &^ (shadowScale - 1)
	rzEnd := userStart + size + RedzoneSize
	if rzStart < rzEnd {
		rt.poison(rzStart, rzEnd-rzStart)
	}
	rt.unpoison(userStart, size)
}

// Alloc implements hooks.Runtime: pad, stamp, poison.
func (rt *Runtime) Alloc(size uint64) (pmemobj.Oid, error) {
	inner, err := rt.pool.Alloc(size + 2*RedzoneSize)
	if err != nil {
		return pmemobj.OidNull, err
	}
	rt.writeHeader(inner.Off, size)
	return pmemobj.Oid{Pool: inner.Pool, Off: inner.Off + RedzoneSize, Size: size}, nil
}

// AllocAt implements hooks.Runtime.
func (rt *Runtime) AllocAt(destOff, size uint64) error {
	oid, err := rt.Alloc(size)
	if err != nil {
		return err
	}
	rt.pool.WriteOid(destOff, oid)
	return nil
}

// innerOid recovers the padded allocation behind a user oid.
func (rt *Runtime) innerOid(oid pmemobj.Oid) (pmemobj.Oid, uint64, error) {
	if oid.Off < RedzoneSize {
		return pmemobj.OidNull, 0, fmt.Errorf("safepm: %v is not a SafePM allocation", oid)
	}
	innerOff := oid.Off - RedzoneSize
	dev := rt.pool.Device()
	if innerOff+16 > dev.Size() || dev.ReadU64(innerOff) != rzMagic {
		return pmemobj.OidNull, 0, fmt.Errorf("safepm: %v has no redzone header", oid)
	}
	userSize := dev.ReadU64(innerOff + 8)
	return pmemobj.Oid{Pool: oid.Pool, Off: innerOff, Size: userSize + 2*RedzoneSize}, userSize, nil
}

// Free implements hooks.Runtime: re-poison, then release the padded
// block.
func (rt *Runtime) Free(oid pmemobj.Oid) error {
	inner, userSize, err := rt.innerOid(oid)
	if err != nil {
		return err
	}
	if err := rt.pool.Free(inner); err != nil {
		return err
	}
	rt.poison(oid.Off, userSize)
	return nil
}

// FreeAt implements hooks.Runtime.
func (rt *Runtime) FreeAt(destOff uint64) error {
	oid := rt.pool.ReadOid(destOff)
	if err := rt.Free(oid); err != nil {
		return err
	}
	rt.pool.WriteOid(destOff, pmemobj.OidNull)
	return nil
}

// Realloc implements hooks.Runtime.
func (rt *Runtime) Realloc(oid pmemobj.Oid, size uint64) (pmemobj.Oid, error) {
	_, userSize, err := rt.innerOid(oid)
	if err != nil {
		return pmemobj.OidNull, err
	}
	newOid, err := rt.Alloc(size)
	if err != nil {
		return pmemobj.OidNull, err
	}
	n := userSize
	if size < n {
		n = size
	}
	dev := rt.pool.Device()
	dev.WriteBytes(newOid.Off, dev.ReadBytes(oid.Off, n))
	dev.Persist(newOid.Off, n)
	if err := rt.Free(oid); err != nil {
		return pmemobj.OidNull, err
	}
	return newOid, nil
}

// ReallocAt implements hooks.Runtime.
func (rt *Runtime) ReallocAt(destOff, size uint64) error {
	oid := rt.pool.ReadOid(destOff)
	if oid.IsNull() {
		return rt.AllocAt(destOff, size)
	}
	newOid, err := rt.Realloc(oid, size)
	if err != nil {
		return err
	}
	rt.pool.WriteOid(destOff, newOid)
	return nil
}

// TxAlloc implements hooks.Runtime.
func (rt *Runtime) TxAlloc(tx *pmemobj.Tx, size uint64) (pmemobj.Oid, error) {
	inner, err := tx.Alloc(size + 2*RedzoneSize)
	if err != nil {
		return pmemobj.OidNull, err
	}
	rt.writeHeader(inner.Off, size)
	return pmemobj.Oid{Pool: inner.Pool, Off: inner.Off + RedzoneSize, Size: size}, nil
}

// TxFree implements hooks.Runtime.
func (rt *Runtime) TxFree(tx *pmemobj.Tx, oid pmemobj.Oid) error {
	inner, userSize, err := rt.innerOid(oid)
	if err != nil {
		return err
	}
	if err := tx.Free(inner); err != nil {
		return err
	}
	rt.poison(oid.Off, userSize)
	return nil
}

// UsableSize implements hooks.Runtime: the user size recorded in the
// left redzone header, once the padded block is known to hold it.
func (rt *Runtime) UsableSize(oid pmemobj.Oid) (uint64, error) {
	inner, userSize, err := rt.innerOid(oid)
	if err != nil {
		return 0, err
	}
	usable, err := rt.pool.UsableSize(inner)
	if err != nil {
		return 0, err
	}
	if userSize > usable || usable-userSize < 2*RedzoneSize {
		return 0, fmt.Errorf("safepm: %v records %d bytes in a %d-byte block", oid, userSize, usable)
	}
	return userSize, nil
}

// Direct implements hooks.Runtime: plain addresses, no tags.
func (rt *Runtime) Direct(oid pmemobj.Oid) uint64 { return rt.pool.Direct(oid) }

// Gep implements hooks.Runtime.
func (rt *Runtime) Gep(p uint64, off int64) uint64 { return p + uint64(off) }

// Check implements hooks.Runtime: the ASan shadow check. This is the
// metadata fetch per access that SPP's design avoids.
func (rt *Runtime) Check(p, n uint64) (uint64, error) {
	if err := rt.checkRange(p, n); err != nil {
		return 0, err
	}
	return p, nil
}

// CheckPM implements hooks.Runtime.
func (rt *Runtime) CheckPM(p, n uint64) (uint64, error) { return rt.Check(p, n) }

// MemIntr implements hooks.Runtime.
func (rt *Runtime) MemIntr(p, n uint64) (uint64, error) { return rt.Check(p, n) }

// External implements hooks.Runtime.
func (rt *Runtime) External(p uint64) uint64 { return p }

func (rt *Runtime) checkRange(p, n uint64) error {
	base := rt.pool.Base()
	dev := rt.pool.Device()
	if p < base || p-base >= dev.Size() || n == 0 {
		// Not a pool pointer: SafePM instruments only PM.
		return nil
	}
	off := p - base
	if off+n > dev.Size() {
		return rt.violation(p, n, "range extends past pool")
	}
	pmLatency() // the shadow lookup reads persistent memory
	data := dev.Data()
	end := off + n - 1
	for g := off / shadowScale; g <= end/shadowScale; g++ {
		s := data[rt.shadowOff+g]
		if s == 0 {
			continue
		}
		if s == poisoned {
			return rt.violation(p, n, "poisoned granule")
		}
		// Partially addressable: the access must end within the first
		// s bytes of this granule.
		last := end
		if gEnd := g*shadowScale + shadowScale - 1; last > gEnd {
			last = gEnd
		}
		if last%shadowScale >= uint64(s) {
			return rt.violation(p, n, "partial granule exceeded")
		}
	}
	return nil
}

func (rt *Runtime) violation(p, n uint64, detail string) error {
	return &hooks.ViolationError{Mechanism: "safepm", Addr: p, Size: n, Detail: detail}
}
