package pmemobj

import (
	"errors"
	"sync"
	"testing"
)

func TestTxCommitMakesChangesDurable(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)

	tx := p.Begin()
	if err := tx.AddRange(root.Off, 16); err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(root.Off, 0xaa)
	dev.WriteU64(root.Off+8, 0xbb)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	q := reopen(t, dev)
	r, _ := q.Root(64)
	if dev.ReadU64(r.Off) != 0xaa || dev.ReadU64(r.Off+8) != 0xbb {
		t.Error("committed stores lost after reopen")
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	dev.WriteU64(root.Off, 0x11)
	dev.Persist(root.Off, 8)

	tx := p.Begin()
	if err := tx.AddRange(root.Off, 8); err != nil {
		t.Fatal(err)
	}
	dev.WriteU64(root.Off, 0x22)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := dev.ReadU64(root.Off); got != 0x11 {
		t.Errorf("after abort = %#x, want 0x11", got)
	}
}

func TestTxRollbackOrderIsLIFO(t *testing.T) {
	// Two snapshots of the same range: rollback must restore the
	// oldest pre-image (reverse application).
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	dev.WriteU64(root.Off, 1)
	dev.Persist(root.Off, 8)

	tx := p.Begin()
	_ = tx.AddRange(root.Off, 8)
	dev.WriteU64(root.Off, 2)
	_ = tx.AddRange(root.Off, 8) // snapshots value 2
	dev.WriteU64(root.Off, 3)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := dev.ReadU64(root.Off); got != 1 {
		t.Errorf("after abort = %d, want original 1", got)
	}
}

func TestTxDoneErrors(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	tx := p.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("second Commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("Abort after Commit = %v", err)
	}
	if err := tx.AddRange(0, 8); !errors.Is(err, ErrTxDone) {
		t.Errorf("AddRange after Commit = %v", err)
	}
	if _, err := tx.Alloc(8); !errors.Is(err, ErrTxDone) {
		t.Errorf("Alloc after Commit = %v", err)
	}
}

func TestTxAddRangeValidation(t *testing.T) {
	p, _ := newTestPool(t, Config{})
	tx := p.Begin()
	defer func() { _ = tx.Abort() }()
	if err := tx.AddRange(p.dev.Size()-4, 8); err == nil {
		t.Error("AddRange past pool end accepted")
	}
}

func TestTxAllocCommitted(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)

	tx := p.Begin()
	oid, err := tx.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddOidRange(root.Off); err != nil {
		t.Fatal(err)
	}
	p.WriteOid(root.Off, oid)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	q := reopen(t, dev)
	got := q.ReadOid(root.Off)
	if got != oid {
		t.Errorf("oid after reopen = %v, want %v", got, oid)
	}
	if _, err := q.validateOid(got); err != nil {
		t.Errorf("tx-allocated object not live after reopen: %v", err)
	}
}

func TestTxAllocAbortReleasesBlock(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	before := p.Stats()
	tx := p.Begin()
	oid, err := tx.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.validateOid(oid); err == nil {
		t.Error("aborted tx alloc still live")
	}
	if got := p.Stats(); got.AllocatedBytes != before.AllocatedBytes {
		t.Errorf("stats leaked: %+v vs %+v", got, before)
	}
}

func TestTxAllocLostOnCrashBeforeCommit(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	tx := p.Begin()
	oid, err := tx.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated power loss: reopen the device without ending the tx.
	q := reopen(t, dev)
	if _, err := q.validateOid(oid); err == nil {
		t.Error("uncommitted block still allocated after recovery")
	}
	if got := q.Stats(); got.AllocatedObjects != 0 {
		t.Errorf("recovered pool has %d objects, want 0", got.AllocatedObjects)
	}
}

func TestTxFreeDeferredToCommit(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	oid, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	tx := p.Begin()
	if err := tx.Free(oid); err != nil {
		t.Fatal(err)
	}
	// Before commit the object is still live.
	if _, err := p.validateOid(oid); err != nil {
		t.Errorf("object freed before commit: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.validateOid(oid); err == nil {
		t.Error("object live after committed tx free")
	}
}

func TestTxFreeSurvivesAbort(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	oid, _ := p.Alloc(64)
	tx := p.Begin()
	_ = tx.Free(oid)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.validateOid(oid); err != nil {
		t.Errorf("object freed despite abort: %v", err)
	}
}

func TestTxFreeOwnAllocImmediate(t *testing.T) {
	p, _ := newTestPool(t, Config{SPP: true})
	before := p.Stats()
	tx := p.Begin()
	oid, _ := tx.Alloc(64)
	if err := tx.Free(oid); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats(); got.AllocatedBytes != before.AllocatedBytes {
		t.Errorf("alloc+free in tx leaked: %+v", got)
	}
}

func TestTxRealloc(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	if err := p.AllocAt(root.Off, 16); err != nil {
		t.Fatal(err)
	}
	oid := p.ReadOid(root.Off)
	dev.WriteBytes(oid.Off, []byte("txdata"))
	dev.Persist(oid.Off, 6)

	tx := p.Begin()
	newOid, err := tx.Realloc(oid, 256)
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.AddOidRange(root.Off)
	p.WriteOid(root.Off, newOid)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := p.ReadOid(root.Off)
	if got.Size != 256 {
		t.Errorf("size = %d", got.Size)
	}
	if string(dev.ReadBytes(got.Off, 6)) != "txdata" {
		t.Error("payload lost in tx realloc")
	}
}

func TestTxReallocAbortKeepsOriginal(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	oid, _ := p.Alloc(16)
	dev.WriteBytes(oid.Off, []byte("orig"))
	dev.Persist(oid.Off, 4)

	tx := p.Begin()
	if _, err := tx.Realloc(oid, 256); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.validateOid(oid); err != nil {
		t.Errorf("original object gone after aborted realloc: %v", err)
	}
	if string(dev.ReadBytes(oid.Off, 4)) != "orig" {
		t.Error("original payload damaged")
	}
}

// TestCrashDuringTxRollsBackOnRecovery is the core §VI-E property: a
// transaction interrupted by power loss must leave no trace.
func TestCrashDuringTxRollsBackOnRecovery(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	dev.WriteU64(root.Off, 0x1111)
	dev.Persist(root.Off, 8)

	tx := p.Begin()
	_ = tx.AddRange(root.Off, 8)
	dev.WriteU64(root.Off, 0x2222)
	dev.Persist(root.Off, 8) // even persisted stores must roll back
	_, _ = tx.Alloc(512)

	q := reopen(t, dev) // crash + recovery
	r, _ := q.Root(64)
	if got := dev.ReadU64(r.Off); got != 0x1111 {
		t.Errorf("after crash recovery = %#x, want rollback to 0x1111", got)
	}
	if got := q.Stats(); got.AllocatedObjects != 1 { // the root only
		t.Errorf("recovered pool has %d objects, want 1 (root)", got.AllocatedObjects)
	}
}

// TestCrashWithPreparedRedoBeforeCommitPoint: the redo log is written
// and committed, but the undo log is still active — the tx had not
// reached its commit point, so recovery must discard the redo.
func TestCrashWithPreparedRedoBeforeCommitPoint(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	dev.WriteU64(root.Off, 7)
	dev.Persist(root.Off, 8)

	tx := p.Begin()
	_ = tx.AddRange(root.Off, 8)
	dev.WriteU64(root.Off, 8)
	// Hand-prepare a redo that would clobber the root if applied.
	if _, err := p.prepareRedo(tx.laneOff, []redoEntry{{root.Off, 0xdddd}}); err != nil {
		t.Fatal(err)
	}

	q := reopen(t, dev)
	r, _ := q.Root(64)
	if got := dev.ReadU64(r.Off); got != 7 {
		t.Errorf("after recovery = %#x, want 7 (redo discarded, undo rolled back)", got)
	}
}

// TestCrashAfterCommitPointAppliesRedo: the undo log is inactive and a
// committed redo log remains — recovery must complete it.
func TestCrashAfterCommitPointAppliesRedo(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	lane := p.laneOff(0)
	if _, err := p.prepareRedo(lane, []redoEntry{{root.Off, 0xcafe}}); err != nil {
		t.Fatal(err)
	}
	q := reopen(t, dev)
	r, _ := q.Root(64)
	if got := dev.ReadU64(r.Off); got != 0xcafe {
		t.Errorf("after recovery = %#x, want redo applied 0xcafe", got)
	}
	if dev.ReadU64(lane+laneRedoState) != redoEmpty {
		t.Error("redo log not cleared after recovery")
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true})
	root, _ := p.Root(64)
	_ = p.AllocAt(root.Off, 100)
	tx := p.Begin()
	_ = tx.AddRange(root.Off, 8)
	dev.WriteU64(root.Off, 0)

	q := reopen(t, dev)
	oid1 := q.ReadOid(root.Off)
	q2 := reopen(t, dev)
	oid2 := q2.ReadOid(root.Off)
	if oid1 != oid2 {
		t.Errorf("recovery not idempotent: %v vs %v", oid1, oid2)
	}
	if _, err := q2.validateOid(oid2); err != nil {
		t.Errorf("object invalid after double recovery: %v", err)
	}
}

// TestUndoLogGrowsWithExtensions: snapshots beyond the in-lane log
// capacity spill into heap-allocated extension segments (PMDK's log
// extensions) and still roll back correctly — including across a
// crash, where heap rebuild reclaims the extension blocks.
func TestUndoLogGrowsWithExtensions(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true, Geometry: Geometry{UndoBytes: 256}})
	root, _ := p.Root(64)
	oid, err := p.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteOid(root.Off, oid)
	for i := uint64(0); i < 64<<10; i += 8 {
		dev.WriteU64(oid.Off+i, i)
	}
	dev.Persist(oid.Off, 64<<10)

	// Abort path: many small snapshots plus one huge one.
	tx := p.Begin()
	for i := uint64(0); i < 64; i++ {
		if err := tx.AddRange(oid.Off+i*128, 64); err != nil {
			t.Fatalf("small AddRange %d: %v", i, err)
		}
	}
	if err := tx.AddRange(oid.Off, 64<<10); err != nil {
		t.Fatalf("huge AddRange: %v", err)
	}
	for i := uint64(0); i < 64<<10; i += 8 {
		dev.WriteU64(oid.Off+i, 0xdead)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64<<10; i += 8 {
		if got := dev.ReadU64(oid.Off + i); got != i {
			t.Fatalf("rollback lost data at +%d: %#x", i, got)
		}
	}
	stats := p.Stats()
	if stats.AllocatedObjects != 2 { // root + object
		t.Errorf("extension blocks leaked: %d objects", stats.AllocatedObjects)
	}

	// Crash path: same snapshots, power loss instead of Abort.
	tx2 := p.Begin()
	if err := tx2.AddRange(oid.Off, 64<<10); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64<<10; i += 8 {
		dev.WriteU64(oid.Off+i, 0xbeef)
	}
	q := reopen(t, dev)
	r, _ := q.Root(64)
	oid2 := q.ReadOid(r.Off)
	for i := uint64(0); i < 64<<10; i += 8 {
		if got := dev.ReadU64(oid2.Off + i); got != i {
			t.Fatalf("crash rollback lost data at +%d: %#x", i, got)
		}
	}
	if got := q.Stats(); got.AllocatedObjects != 2 {
		t.Errorf("extension blocks leaked across crash: %d objects", got.AllocatedObjects)
	}
}

func TestConcurrentTransactions(t *testing.T) {
	p, dev := newTestPool(t, Config{SPP: true, Geometry: Geometry{NLanes: 8}})
	root, _ := p.Root(1024)
	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := root.Off + uint64(g)*32
			for i := 0; i < iters; i++ {
				tx := p.Begin()
				if err := tx.AddRange(slot, 8); err != nil {
					t.Errorf("AddRange: %v", err)
					_ = tx.Abort()
					return
				}
				dev.WriteU64(slot, uint64(g)<<32|uint64(i))
				oid, err := tx.Alloc(64)
				if err != nil {
					t.Errorf("tx.Alloc: %v", err)
					_ = tx.Abort()
					return
				}
				if err := tx.Free(oid); err != nil {
					t.Errorf("tx.Free: %v", err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		slot := root.Off + uint64(g)*32
		if got := dev.ReadU64(slot); got != uint64(g)<<32|uint64(iters-1) {
			t.Errorf("slot %d = %#x", g, got)
		}
	}
	if got := p.Stats(); got.AllocatedObjects != 1 { // root only
		t.Errorf("leaked objects: %d", got.AllocatedObjects)
	}
}

func TestConcurrentAtomicAllocFree(t *testing.T) {
	p, _ := newTestPool(t, Config{Geometry: Geometry{NLanes: 8}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				oid, err := p.Alloc(uint64(16 + i%64))
				if err != nil {
					t.Errorf("Alloc: %v", err)
					return
				}
				if err := p.Free(oid); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.Stats(); got.AllocatedObjects != 0 {
		t.Errorf("leaked %d objects", got.AllocatedObjects)
	}
}

// TestTxCommitSpillingRedoKeepsFreeNeighbor: a commit whose redo log
// spills into an extension segment frees the block next to the heap's
// only free run. The extension is reserved after the free is planned,
// so the plan must not absorb that run into the in-flux span.
func TestTxCommitSpillingRedoKeepsFreeNeighbor(t *testing.T) {
	p, _ := newTestPool(t, Config{Knobs: Knobs{NArenas: 1}})
	n := p.redoCap // tx allocs; the free's two entries make the redo spill
	early := make([]Oid, n)
	for i := range early {
		var err error
		if early[i], err = p.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	// The last block allocated: the rest of the heap is one free run
	// right after it.
	last, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range early {
		if err := p.Free(oid); err != nil {
			t.Fatal(err)
		}
	}
	// The tx allocations reuse the freed blocks, leaving the tail run as
	// the only free space when the commit plans its free of last.
	tx := p.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Alloc(64); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Free(last); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := p.Stats().AllocatedObjects; got != uint64(n) {
		t.Errorf("AllocatedObjects = %d, want %d", got, n)
	}
}
