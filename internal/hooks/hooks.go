// Package hooks defines the instrumentation surface that SPP's
// compiler passes inject into an application (Listing 1 of the paper)
// and provides the variant implementations used by the evaluation.
//
// Application code in this repository (the persistent indices, the KV
// store, the Phoenix kernels, the RIPE attacks) is written against the
// Runtime interface, calling it at exactly the sites the LLVM
// transformation pass would instrument: after pointer arithmetic
// (Gep), before dereferences (Check), before memory intrinsics
// (MemIntr) and before external calls (External). Swapping the Runtime
// swaps the protection mechanism without touching application code —
// the Go analog of recompiling with a different sanitizer:
//
//   - Native: no instrumentation (the PMDK baseline of Table I).
//   - SPP: tag arithmetic only, faults implicitly at access time.
//   - SafePM (package safepm): persistent shadow memory + redzones.
//   - memcheck (package memcheck): addressability tracking.
package hooks

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/pmemobj"
	"repro/internal/vmem"
)

// ViolationError reports a memory-safety violation detected by an
// explicit check (shadow memory or addressability tracking). SPP does
// not produce it: its violations surface as vmem faults at access
// time.
type ViolationError struct {
	Mechanism string
	Addr      uint64
	Size      uint64
	Detail    string
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("%s: memory-safety violation: %d-byte access at %#x (%s)",
		e.Mechanism, e.Size, e.Addr, e.Detail)
}

// IsSafetyTrap reports whether err represents a detected memory-safety
// violation under any mechanism: an explicit sanitizer report or the
// simulated hardware fault an SPP overflow triggers.
func IsSafetyTrap(err error) bool {
	var v *ViolationError
	if errors.As(err, &v) {
		return true
	}
	var f *vmem.FaultError
	return errors.As(err, &f)
}

// Runtime is the per-variant instrumentation. Pointer values flowing
// through it are simulated 64-bit pointers (tagged under SPP).
type Runtime interface {
	// Name identifies the variant ("pmdk", "spp", "safepm", "memcheck").
	Name() string
	// Pool returns the object pool the runtime is attached to.
	Pool() *pmemobj.Pool
	// Space returns the simulated address space.
	Space() *vmem.AddressSpace

	// Root returns the pool's root object of at least the given size.
	// SafePM pads it with redzones like any other allocation.
	Root(size uint64) (pmemobj.Oid, error)

	// Allocation wrappers. SafePM adjusts sizes and offsets for its
	// redzones here; SPP and native pass straight through.
	Alloc(size uint64) (pmemobj.Oid, error)
	AllocAt(destOff, size uint64) error
	Free(oid pmemobj.Oid) error
	FreeAt(destOff uint64) error
	Realloc(oid pmemobj.Oid, size uint64) (pmemobj.Oid, error)
	ReallocAt(destOff, size uint64) error
	TxAlloc(tx *pmemobj.Tx, size uint64) (pmemobj.Oid, error)
	TxFree(tx *pmemobj.Tx, oid pmemobj.Oid) error
	// UsableSize returns how many bytes from oid's offset the live
	// allocation behind it holds, from persistent allocator metadata,
	// so a persisted count can be checked before it is trusted.
	UsableSize(oid pmemobj.Oid) (uint64, error)

	// Direct is pmemobj_direct: oid to (variant-specific) pointer.
	Direct(oid pmemobj.Oid) uint64
	// Gep is pointer arithmetic plus the injected __spp_updatetag.
	Gep(p uint64, off int64) uint64
	// Check is __spp_checkbound before an n-byte dereference: it
	// returns the address to access. Mechanisms with explicit checks
	// return an error on violation; SPP returns an address that
	// faults.
	Check(p, n uint64) (uint64, error)
	// CheckPM is the _direct hook variant used when the pointer is
	// statically known to point to PM (pointer-tracking optimization).
	CheckPM(p, n uint64) (uint64, error)
	// MemIntr is __spp_memintr_check for a memory intrinsic touching
	// n bytes starting at p.
	MemIntr(p, n uint64) (uint64, error)
	// External is __spp_cleantag_external before uninstrumented calls.
	External(p uint64) uint64
}

// Native is the unprotected PMDK baseline: every hook is a pass-through.
type Native struct {
	pool *pmemobj.Pool
	as   *vmem.AddressSpace
}

var _ Runtime = (*Native)(nil)

// NewNative returns the baseline runtime over pool.
func NewNative(pool *pmemobj.Pool, as *vmem.AddressSpace) *Native {
	return &Native{pool: pool, as: as}
}

// Name implements Runtime.
func (n *Native) Name() string { return "pmdk" }

// Pool implements Runtime.
func (n *Native) Pool() *pmemobj.Pool { return n.pool }

// Space implements Runtime.
func (n *Native) Space() *vmem.AddressSpace { return n.as }

// Root implements Runtime.
func (n *Native) Root(size uint64) (pmemobj.Oid, error) { return n.pool.Root(size) }

// Alloc implements Runtime.
func (n *Native) Alloc(size uint64) (pmemobj.Oid, error) { return n.pool.Alloc(size) }

// AllocAt implements Runtime.
func (n *Native) AllocAt(destOff, size uint64) error { return n.pool.AllocAt(destOff, size) }

// Free implements Runtime.
func (n *Native) Free(oid pmemobj.Oid) error { return n.pool.Free(oid) }

// FreeAt implements Runtime.
func (n *Native) FreeAt(destOff uint64) error { return n.pool.FreeAt(destOff) }

// Realloc implements Runtime.
func (n *Native) Realloc(oid pmemobj.Oid, size uint64) (pmemobj.Oid, error) {
	return n.pool.Realloc(oid, size)
}

// ReallocAt implements Runtime.
func (n *Native) ReallocAt(destOff, size uint64) error { return n.pool.ReallocAt(destOff, size) }

// TxAlloc implements Runtime.
func (n *Native) TxAlloc(tx *pmemobj.Tx, size uint64) (pmemobj.Oid, error) { return tx.Alloc(size) }

// TxFree implements Runtime.
func (n *Native) TxFree(tx *pmemobj.Tx, oid pmemobj.Oid) error { return tx.Free(oid) }

// UsableSize implements Runtime.
func (n *Native) UsableSize(oid pmemobj.Oid) (uint64, error) { return n.pool.UsableSize(oid) }

// Direct implements Runtime.
func (n *Native) Direct(oid pmemobj.Oid) uint64 { return n.pool.Direct(oid) }

// Gep implements Runtime.
func (n *Native) Gep(p uint64, off int64) uint64 { return p + uint64(off) }

// Check implements Runtime.
func (n *Native) Check(p, _ uint64) (uint64, error) { return p, nil }

// CheckPM implements Runtime.
func (n *Native) CheckPM(p, _ uint64) (uint64, error) { return p, nil }

// MemIntr implements Runtime.
func (n *Native) MemIntr(p, _ uint64) (uint64, error) { return p, nil }

// External implements Runtime.
func (n *Native) External(p uint64) uint64 { return p }

// SPP is the paper's mechanism: tagged pointers with implicit bounds
// checks. All hooks are pure register arithmetic — no metadata loads.
type SPP struct {
	pool *pmemobj.Pool
	as   *vmem.AddressSpace
	enc  core.Encoding
	// saturating enables the §IV-G wraparound hardening: offsets past
	// the tag range pin the overflow bit instead of wrapping it.
	saturating bool
}

// SetSaturating toggles the wraparound hardening (GepSaturating).
func (s *SPP) SetSaturating(on bool) { s.saturating = on }

var _ Runtime = (*SPP)(nil)

// NewSPP returns the SPP runtime over an SPP-mode pool.
func NewSPP(pool *pmemobj.Pool, as *vmem.AddressSpace) (*SPP, error) {
	if !pool.SPP() {
		return nil, errors.New("hooks: SPP runtime requires a pool created with Config.SPP")
	}
	return &SPP{pool: pool, as: as, enc: pool.Encoding()}, nil
}

// Name implements Runtime.
func (s *SPP) Name() string { return "spp" }

// Pool implements Runtime.
func (s *SPP) Pool() *pmemobj.Pool { return s.pool }

// Space implements Runtime.
func (s *SPP) Space() *vmem.AddressSpace { return s.as }

// Root implements Runtime.
func (s *SPP) Root(size uint64) (pmemobj.Oid, error) { return s.pool.Root(size) }

// Alloc implements Runtime.
func (s *SPP) Alloc(size uint64) (pmemobj.Oid, error) { return s.pool.Alloc(size) }

// AllocAt implements Runtime.
func (s *SPP) AllocAt(destOff, size uint64) error { return s.pool.AllocAt(destOff, size) }

// Free implements Runtime.
func (s *SPP) Free(oid pmemobj.Oid) error { return s.pool.Free(oid) }

// FreeAt implements Runtime.
func (s *SPP) FreeAt(destOff uint64) error { return s.pool.FreeAt(destOff) }

// Realloc implements Runtime.
func (s *SPP) Realloc(oid pmemobj.Oid, size uint64) (pmemobj.Oid, error) {
	return s.pool.Realloc(oid, size)
}

// ReallocAt implements Runtime.
func (s *SPP) ReallocAt(destOff, size uint64) error { return s.pool.ReallocAt(destOff, size) }

// TxAlloc implements Runtime.
func (s *SPP) TxAlloc(tx *pmemobj.Tx, size uint64) (pmemobj.Oid, error) { return tx.Alloc(size) }

// TxFree implements Runtime.
func (s *SPP) TxFree(tx *pmemobj.Tx, oid pmemobj.Oid) error { return tx.Free(oid) }

// UsableSize implements Runtime.
func (s *SPP) UsableSize(oid pmemobj.Oid) (uint64, error) { return s.pool.UsableSize(oid) }

// Direct implements Runtime: the tagged pointer of §IV-B.
func (s *SPP) Direct(oid pmemobj.Oid) uint64 { return s.pool.Direct(oid) }

// Gep implements Runtime: address advance plus __spp_updatetag.
func (s *SPP) Gep(p uint64, off int64) uint64 {
	hookGep.IncSampled()
	if s.saturating {
		return s.enc.GepSaturating(p, off)
	}
	return s.enc.Gep(p, off)
}

// Check implements Runtime: __spp_checkbound. The returned address
// carries the overflow bit on violation; the access itself faults. A
// set overflow bit additionally files a check-time audit record — the
// one extra branch the always-on audit trail costs this hot path.
func (s *SPP) Check(p, n uint64) (uint64, error) {
	hookCheck.IncSampled()
	r := s.enc.CheckBound(p, n)
	if core.Overflow(r) {
		s.recordOverflow("checkbound", p, r, n)
	}
	return r, nil
}

// CheckPM implements Runtime: the _direct hook that skips the PM-bit
// test (§V-B).
func (s *SPP) CheckPM(p, n uint64) (uint64, error) {
	hookCheckPM.IncSampled()
	r := s.enc.CheckBoundDirect(p, n)
	if core.Overflow(r) {
		s.recordOverflow("checkbound-pm", p, r, n)
	}
	return r, nil
}

// MemIntr implements Runtime: __spp_memintr_check.
func (s *SPP) MemIntr(p, n uint64) (uint64, error) {
	hookMemIntr.IncSampled()
	r := s.enc.MemIntrCheck(p, n)
	if core.Overflow(r) {
		s.recordOverflow("memintr", p, r, n)
	}
	return r, nil
}

// External implements Runtime: __spp_cleantag_external.
func (s *SPP) External(p uint64) uint64 {
	hookExternal.IncSampled()
	return s.enc.CleanTagExternal(p)
}
