package pmemobj

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/vmem"
)

const testBase = 0x10000

func newTestPool(t *testing.T, cfg Config) (*Pool, *pmem.Pool) {
	t.Helper()
	dev := pmem.NewPool("test", 1<<23)
	if cfg.UUID == 0 {
		cfg.UUID = 0xdead
	}
	p, err := Create(dev, nil, testBase, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return p, dev
}

func reopen(t *testing.T, dev *pmem.Pool) *Pool {
	t.Helper()
	p, err := Open(dev, nil, testBase)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return p
}

func TestCreateAndReopen(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	if !p.SPP() {
		t.Error("SPP() = false")
	}
	if p.UUID() != 0xdead {
		t.Errorf("UUID = %#x", p.UUID())
	}
	if p.OidPersistedSize() != OidSizeSPP {
		t.Errorf("oid size = %d", p.OidPersistedSize())
	}
	q := reopen(t, dev)
	if q.UUID() != 0xdead || !q.SPP() || q.Encoding().TagBits() != core.DefaultTagBits {
		t.Error("reopened pool lost configuration")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dev := pmem.NewPool("junk", 1<<20)
	if _, err := Open(dev, nil, testBase); !errors.Is(err, ErrCorruptPool) {
		t.Errorf("Open(unformatted) = %v, want ErrCorruptPool", err)
	}
	dev.WriteU64(hMagic, poolMagic)
	dev.WriteU64(hVersion, 99)
	if _, err := Open(dev, nil, testBase); !errors.Is(err, ErrCorruptPool) {
		t.Errorf("Open(bad version) = %v, want ErrCorruptPool", err)
	}
}

// TestOpenRejectsCorruptLaneGeometry corrupts one lane-geometry word
// of a valid pool header at a time: Open must return ErrCorruptPool
// before recovery reads a lane, never panic or accept the image.
func TestOpenRejectsCorruptLaneGeometry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		field uint64
		val   uint64
	}{
		{"nlanes-huge", hNLanes, 1 << 20},
		{"nlanes-over-heap", hNLanes, 155},
		{"lanesize-huge", hLaneSize, 1 << 40},
		{"redo-entries-huge", hRedoEntries, 1 << 40},
		{"undo-bytes-huge", hUndoBytes, 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, dev := newTestPool(t, Config{SPP: true})
			dev.WriteU64(tc.field, tc.val)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Open panicked: %v", r)
				}
			}()
			if _, err := Open(dev, nil, testBase); !errors.Is(err, ErrCorruptPool) {
				t.Fatalf("Open = %v, want ErrCorruptPool", err)
			}
		})
	}
}

func TestCreateRejectsBadGeometry(t *testing.T) {
	dev := pmem.NewPool("tiny", 1<<12)
	if _, err := Create(dev, nil, testBase, Config{}); err == nil {
		t.Error("Create on tiny pool succeeded")
	}
	if _, err := Create(pmem.NewPool("x", 1<<22), nil, 0, Config{}); err == nil {
		t.Error("Create with zero base succeeded")
	}
	// SPP pool must fit under the tag-limited address space: with 46
	// tag bits only 16 address bits remain.
	_, err := Create(pmem.NewPool("x", 1<<20), nil, testBase, Config{SPP: true, TagBits: 46})
	if !errors.Is(err, ErrPoolMapsHigh) {
		t.Errorf("Create beyond address limit = %v, want ErrPoolMapsHigh", err)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	before := p.Stats()
	oid, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if oid.Size != 100 || oid.Pool != p.UUID() || oid.IsNull() {
		t.Errorf("oid = %v", oid)
	}
	mid := p.Stats()
	if mid.AllocatedObjects != before.AllocatedObjects+1 {
		t.Errorf("objects = %d", mid.AllocatedObjects)
	}
	// Payload is zeroed.
	for i := uint64(0); i < 100; i += 8 {
		if v := p.dev.ReadU64(oid.Off + i); v != 0 {
			t.Fatalf("payload not zeroed at +%d: %#x", i, v)
		}
	}
	if err := p.Free(oid); err != nil {
		t.Fatal(err)
	}
	after := p.Stats()
	if after.AllocatedBytes != before.AllocatedBytes || after.AllocatedObjects != before.AllocatedObjects {
		t.Errorf("stats not restored: %+v vs %+v", after, before)
	}
	if err := p.Free(oid); !errors.Is(err, ErrBadOid) {
		t.Errorf("double free = %v, want ErrBadOid", err)
	}
}

func TestAllocErrors(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true, TagBits: 8}) // max object 256 B
	if _, err := p.Alloc(0); !errors.Is(err, ErrZeroSizeAlloc) {
		t.Errorf("Alloc(0) = %v", err)
	}
	if _, err := p.Alloc(257); !errors.Is(err, ErrObjectTooBig) {
		t.Errorf("Alloc(max+1) = %v, want ErrObjectTooBig", err)
	}
	if _, err := p.Alloc(256); err != nil {
		t.Errorf("Alloc(max) = %v", err)
	}
}

func TestHeapExhaustionAndReuse(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	var oids []Oid
	for {
		oid, err := p.Alloc(1 << 16)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		oids = append(oids, oid)
	}
	if len(oids) < 16 {
		t.Fatalf("only %d allocations fit", len(oids))
	}
	for _, oid := range oids {
		if err := p.Free(oid); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing everything, one allocation of almost the whole
	// heap must succeed again (forward coalescing at free time plus
	// free-list reuse).
	big := (p.heapEnd - p.heapOff) * 3 / 4
	if _, err := p.Alloc(big); err != nil {
		t.Fatalf("big alloc after frees: %v (coalescing broken?)", err)
	}
}

func TestFreeRejectsForeignOid(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	tests := []Oid{
		{},
		{Pool: p.UUID() + 1, Off: p.heapOff + 16, Size: 8},
		{Pool: p.UUID(), Off: 8, Size: 8},
		{Pool: p.UUID(), Off: p.heapEnd + 100, Size: 8},
		{Pool: p.UUID(), Off: p.heapOff + 16 + 4096, Size: 8}, // inside free space
	}
	for _, oid := range tests {
		if err := p.Free(oid); !errors.Is(err, ErrBadOid) {
			t.Errorf("Free(%v) = %v, want ErrBadOid", oid, err)
		}
	}
}

func TestAllocAtPublishesOid(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	root, err := p.Root(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AllocAt(root.Off, 48); err != nil {
		t.Fatal(err)
	}
	oid := p.ReadOid(root.Off)
	if oid.IsNull() || oid.Size != 48 || oid.Pool != p.UUID() {
		t.Errorf("published oid = %v", oid)
	}
	if err := p.FreeAt(root.Off); err != nil {
		t.Fatal(err)
	}
	if got := p.ReadOid(root.Off); !got.IsNull() || got.Size != 0 {
		t.Errorf("oid after FreeAt = %v, want null", got)
	}
}

func TestReallocPreservesPrefix(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	if err := p.AllocAt(root.Off, 32); err != nil {
		t.Fatal(err)
	}
	oid := p.ReadOid(root.Off)
	p.dev.WriteBytes(oid.Off, []byte("hello pm"))
	p.dev.Persist(oid.Off, 8)
	if err := p.ReallocAt(root.Off, 1024); err != nil {
		t.Fatal(err)
	}
	grown := p.ReadOid(root.Off)
	if grown.Size != 1024 {
		t.Errorf("grown size = %d", grown.Size)
	}
	if string(p.dev.ReadBytes(grown.Off, 8)) != "hello pm" {
		t.Error("payload lost across realloc")
	}
	// Shrink keeps the prefix too.
	if err := p.ReallocAt(root.Off, 4); err != nil {
		t.Fatal(err)
	}
	shrunk := p.ReadOid(root.Off)
	if string(p.dev.ReadBytes(shrunk.Off, 4)) != "hell" {
		t.Error("payload lost across shrink")
	}
}

func TestReallocAtOnNullAllocates(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	if err := p.ReallocAt(root.Off, 128); err != nil {
		t.Fatal(err)
	}
	if oid := p.ReadOid(root.Off); oid.Size != 128 {
		t.Errorf("oid = %v", oid)
	}
}

func TestReallocVolatileHandle(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	p.dev.WriteBytes(oid.Off, []byte("abcd"))
	newOid, err := p.Realloc(oid, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if newOid.Size != 4096 {
		t.Errorf("size = %d", newOid.Size)
	}
	if string(p.dev.ReadBytes(newOid.Off, 4)) != "abcd" {
		t.Error("payload lost")
	}
	if err := p.Free(newOid); err != nil {
		t.Fatal(err)
	}
}

func TestDirectTagging(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	oid, err := p.Alloc(42)
	if err != nil {
		t.Fatal(err)
	}
	ptr := p.Direct(oid)
	if !core.IsPM(ptr) {
		t.Error("Direct did not set PM bit")
	}
	enc := p.Encoding()
	if enc.Addr(ptr) != testBase+oid.Off {
		t.Errorf("addr = %#x, want %#x", enc.Addr(ptr), testBase+oid.Off)
	}
	if core.Overflow(enc.Gep(ptr, 41)) {
		t.Error("in-bounds Gep overflowed")
	}
	if !core.Overflow(enc.Gep(ptr, 42)) {
		t.Error("out-of-bounds Gep did not overflow")
	}
	if p.Direct(OidNull) != 0 {
		t.Error("Direct(null) != 0")
	}
	if p.Direct(Oid{Pool: 123, Off: oid.Off}) != 0 {
		t.Error("Direct(foreign pool) != 0")
	}
}

func TestDirectUntaggedInNativeMode(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: false})
	oid, err := p.Alloc(42)
	if err != nil {
		t.Fatal(err)
	}
	ptr := p.Direct(oid)
	if core.IsPM(ptr) {
		t.Error("native pool returned tagged pointer")
	}
	if ptr != testBase+oid.Off {
		t.Errorf("ptr = %#x", ptr)
	}
}

func TestNativeOidLayoutIs16Bytes(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: false})
	if p.OidPersistedSize() != OidSizePMDK {
		t.Fatalf("oid size = %d", p.OidPersistedSize())
	}
	root, _ := p.Root(64)
	if err := p.AllocAt(root.Off, 8); err != nil {
		t.Fatal(err)
	}
	// The size field location must be untouched in native mode.
	if v := p.dev.ReadU64(root.Off + oidSizeField); v != 0 {
		t.Errorf("native pool wrote size field: %#x", v)
	}
	if got := p.ReadOid(root.Off); got.Size != 0 {
		t.Errorf("native ReadOid.Size = %d", got.Size)
	}
}

func TestRootPersistsAcrossReopen(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	r1, err := p.Root(256)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Root(100) // smaller: same root
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("Root not stable: %v vs %v", r1, r2)
	}
	p.dev.WriteBytes(r1.Off, []byte("rootdata"))
	p.dev.Persist(r1.Off, 8)

	q := reopen(t, dev)
	r3, err := q.Root(256)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Errorf("Root after reopen = %v, want %v", r3, r1)
	}
	if string(q.dev.ReadBytes(r3.Off, 8)) != "rootdata" {
		t.Error("root payload lost")
	}
}

func TestRootGrows(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	r1, _ := p.Root(64)
	p.dev.WriteBytes(r1.Off, []byte("grow"))
	r2, err := p.Root(4096)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size != 4096 {
		t.Errorf("grown root size = %d", r2.Size)
	}
	if string(p.dev.ReadBytes(r2.Off, 4)) != "grow" {
		t.Error("root payload lost on growth")
	}
}

func TestUserSlot(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	oid, _ := p.Alloc(128)
	p.SetUserSlot(oid)
	q := reopen(t, dev)
	if got := q.UserSlot(); got != oid {
		t.Errorf("UserSlot after reopen = %v, want %v", got, oid)
	}
}

func TestVmemMappingAndPersistRange(t *testing.T) {
	dev := pmem.NewPool("test", 1<<21)
	as := vmem.New()
	p, err := Create(dev, as, testBase, Config{SPP: true})
	if err != nil {
		t.Fatal(err)
	}
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	addr := p.Encoding().CleanTag(p.Direct(oid))
	if err := as.StoreU64(addr, 0x1234); err != nil {
		t.Fatalf("store through mapping: %v", err)
	}
	if got := dev.ReadU64(oid.Off); got != 0x1234 {
		t.Errorf("store not visible in pool: %#x", got)
	}
	if err := p.PersistRange(addr, 8); err != nil {
		t.Fatal(err)
	}
	if err := p.PersistRange(0x5, 8); !errors.Is(err, ErrNotInPool) {
		t.Errorf("PersistRange outside pool = %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := as.LoadU64(addr); err == nil {
		t.Error("mapping still accessible after Close")
	}
}

func TestOffsetOf(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	if _, err := p.OffsetOf(testBase - 1); !errors.Is(err, ErrNotInPool) {
		t.Error("below base accepted")
	}
	off, err := p.OffsetOf(testBase + 100)
	if err != nil || off != 100 {
		t.Errorf("OffsetOf = %d, %v", off, err)
	}
	if _, err := p.OffsetOf(testBase + p.dev.Size()); !errors.Is(err, ErrNotInPool) {
		t.Error("past end accepted")
	}
}
