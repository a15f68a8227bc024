// Package memcheck reimplements the pmem-aware Valgrind memcheck
// baseline of Table IV: a dynamic addressability tracker. It knows
// which pool ranges belong to live allocations (from PMDK's internal
// annotations, here the allocator itself) and flags any access that
// touches memory outside every live object.
//
// It is deliberately coarser than SafePM or SPP: it has no redzones
// and no per-object bounds, so an overflow that lands inside an
// *adjacent live object* goes undetected — the mechanistic reason
// memcheck stops only 203 of the 223 RIPE attacks in the paper while
// SPP stops 219.
package memcheck

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/hooks"
	"repro/internal/pmemobj"
	"repro/internal/vmem"
)

// Runtime is the memcheck hooks implementation.
type Runtime struct {
	pool *pmemobj.Pool
	as   *vmem.AddressSpace

	mu    sync.Mutex
	start []uint64 // sorted payload offsets of live blocks
	size  map[uint64]uint64
}

var _ hooks.Runtime = (*Runtime)(nil)

// Attach builds the addressability map for a native-mode pool by
// walking the heap, the analog of Valgrind reading PMDK's annotations.
func Attach(pool *pmemobj.Pool, as *vmem.AddressSpace) (*Runtime, error) {
	if pool.SPP() {
		return nil, errors.New("memcheck: requires a native-mode pool")
	}
	rt := &Runtime{pool: pool, as: as, size: make(map[uint64]uint64)}
	err := pool.ForEachAllocated(func(off, size uint64) error {
		rt.insert(off, size)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rt, nil
}

func (rt *Runtime) insert(off, size uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	i := sort.Search(len(rt.start), func(i int) bool { return rt.start[i] >= off })
	rt.start = append(rt.start, 0)
	copy(rt.start[i+1:], rt.start[i:])
	rt.start[i] = off
	rt.size[off] = size
}

func (rt *Runtime) remove(off uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	i := sort.Search(len(rt.start), func(i int) bool { return rt.start[i] >= off })
	if i < len(rt.start) && rt.start[i] == off {
		rt.start = append(rt.start[:i], rt.start[i+1:]...)
		delete(rt.size, off)
	}
}

// covered reports whether [off, off+n) lies inside one live block.
func (rt *Runtime) covered(off, n uint64) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	i := sort.Search(len(rt.start), func(i int) bool { return rt.start[i] > off })
	if i == 0 {
		return false
	}
	blk := rt.start[i-1]
	return off+n <= blk+rt.size[blk]
}

// blockPayload returns the payload size the allocator reserved for the
// user size (16-aligned), which is the range memcheck registers —
// block-granular, like Valgrind's VALID_REGION on PMDK allocations.
func blockPayload(size uint64) uint64 { return (size + 15) &^ 15 }

// Name implements hooks.Runtime.
func (rt *Runtime) Name() string { return "memcheck" }

// Pool implements hooks.Runtime.
func (rt *Runtime) Pool() *pmemobj.Pool { return rt.pool }

// Space implements hooks.Runtime.
func (rt *Runtime) Space() *vmem.AddressSpace { return rt.as }

// Root implements hooks.Runtime.
func (rt *Runtime) Root(size uint64) (pmemobj.Oid, error) {
	oid, err := rt.pool.Root(size)
	if err != nil {
		return pmemobj.OidNull, err
	}
	rt.remove(oid.Off) // re-register in case of growth
	rt.insert(oid.Off, blockPayload(size))
	return oid, nil
}

// Alloc implements hooks.Runtime.
func (rt *Runtime) Alloc(size uint64) (pmemobj.Oid, error) {
	oid, err := rt.pool.Alloc(size)
	if err != nil {
		return pmemobj.OidNull, err
	}
	rt.insert(oid.Off, blockPayload(size))
	return oid, nil
}

// AllocAt implements hooks.Runtime.
func (rt *Runtime) AllocAt(destOff, size uint64) error {
	if err := rt.pool.AllocAt(destOff, size); err != nil {
		return err
	}
	oid := rt.pool.ReadOid(destOff)
	rt.insert(oid.Off, blockPayload(size))
	return nil
}

// Free implements hooks.Runtime.
func (rt *Runtime) Free(oid pmemobj.Oid) error {
	if err := rt.pool.Free(oid); err != nil {
		return err
	}
	rt.remove(oid.Off)
	return nil
}

// FreeAt implements hooks.Runtime.
func (rt *Runtime) FreeAt(destOff uint64) error {
	oid := rt.pool.ReadOid(destOff)
	if err := rt.pool.FreeAt(destOff); err != nil {
		return err
	}
	rt.remove(oid.Off)
	return nil
}

// Realloc implements hooks.Runtime.
func (rt *Runtime) Realloc(oid pmemobj.Oid, size uint64) (pmemobj.Oid, error) {
	newOid, err := rt.pool.Realloc(oid, size)
	if err != nil {
		return pmemobj.OidNull, err
	}
	rt.remove(oid.Off)
	rt.insert(newOid.Off, blockPayload(size))
	return newOid, nil
}

// ReallocAt implements hooks.Runtime.
func (rt *Runtime) ReallocAt(destOff, size uint64) error {
	old := rt.pool.ReadOid(destOff)
	if err := rt.pool.ReallocAt(destOff, size); err != nil {
		return err
	}
	if !old.IsNull() {
		rt.remove(old.Off)
	}
	oid := rt.pool.ReadOid(destOff)
	rt.insert(oid.Off, blockPayload(size))
	return nil
}

// TxAlloc implements hooks.Runtime.
func (rt *Runtime) TxAlloc(tx *pmemobj.Tx, size uint64) (pmemobj.Oid, error) {
	oid, err := tx.Alloc(size)
	if err != nil {
		return pmemobj.OidNull, err
	}
	rt.insert(oid.Off, blockPayload(size))
	return oid, nil
}

// TxFree implements hooks.Runtime.
func (rt *Runtime) TxFree(tx *pmemobj.Tx, oid pmemobj.Oid) error {
	if err := tx.Free(oid); err != nil {
		return err
	}
	rt.remove(oid.Off)
	return nil
}

// UsableSize implements hooks.Runtime.
func (rt *Runtime) UsableSize(oid pmemobj.Oid) (uint64, error) { return rt.pool.UsableSize(oid) }

// Direct implements hooks.Runtime.
func (rt *Runtime) Direct(oid pmemobj.Oid) uint64 { return rt.pool.Direct(oid) }

// Gep implements hooks.Runtime.
func (rt *Runtime) Gep(p uint64, off int64) uint64 { return p + uint64(off) }

// Check implements hooks.Runtime.
func (rt *Runtime) Check(p, n uint64) (uint64, error) {
	base := rt.pool.Base()
	if p < base || p-base >= rt.pool.Device().Size() || n == 0 {
		return p, nil // not a pool pointer
	}
	heapStart, heapEnd := rt.pool.HeapBounds()
	off := p - base
	if off < heapStart || off >= heapEnd {
		// Pool metadata: PMDK-internal, always annotated addressable.
		return p, nil
	}
	if !rt.covered(off, n) {
		return 0, &hooks.ViolationError{
			Mechanism: "memcheck", Addr: p, Size: n,
			Detail: fmt.Sprintf("access outside live allocations (pool offset %#x)", off),
		}
	}
	return p, nil
}

// CheckPM implements hooks.Runtime.
func (rt *Runtime) CheckPM(p, n uint64) (uint64, error) { return rt.Check(p, n) }

// MemIntr implements hooks.Runtime.
func (rt *Runtime) MemIntr(p, n uint64) (uint64, error) { return rt.Check(p, n) }

// External implements hooks.Runtime.
func (rt *Runtime) External(p uint64) uint64 { return p }
