package pmemobj

import "fmt"

// redoEntry is one 8-byte redo-log write: pool[off] = val.
type redoEntry struct {
	off, val uint64
}

// prepareRedo writes entries into the lane's redo log — spilling into
// heap-allocated extension segments when they exceed the lane's
// capacity — and marks it committed, but does not apply it. Used by
// transaction commit, where the undo-log invalidation between prepare
// and apply is the commit point. A crash after prepare is resolved by
// recovery: the redo is applied if the lane's undo log is inactive and
// discarded otherwise; extension blocks are in the uncommitted state
// and are reclaimed by heap rebuild, which runs after lane recovery.
//
// The returned reservations must be released by the caller after
// apply.
func (p *Pool) prepareRedo(lane uint64, entries []redoEntry) ([]reservation, error) {
	metRedoEnts.Observe(uint64(len(entries)))
	s := p.getScratch()
	defer p.putScratch(s)
	inLane := len(entries)
	if inLane > p.redoCap {
		inLane = p.redoCap
	}
	words := s.words[:0]
	for _, e := range entries[:inLane] {
		words = append(words, e.off, e.val)
	}
	p.dev.WriteU64s(lane+laneRedoBase, words)
	s.ac.Flush(lane+laneRedoBase, uint64(inLane)*16)

	var exts []reservation
	prevLink := lane + laneRedoExt
	p.dev.WriteU64(prevLink, 0)
	rest := entries[inLane:]
	for len(rest) > 0 {
		n := len(rest)
		if n > p.redoCap {
			n = p.redoCap
		}
		resv, err := p.heap.reserveAny(p, redoExtDataOff+uint64(n)*16)
		if err != nil {
			for _, r := range exts {
				p.heap.releaseBlock(p, r)
			}
			s.ac.Drain()
			s.words = words
			return nil, fmt.Errorf("redo log extension: %w", err)
		}
		p.dev.WriteU64(resv.blk, resv.size)
		p.dev.Persist(resv.blk, 8)
		p.dev.WriteU64(resv.blk+8, blockUncommitted)
		p.dev.Persist(resv.blk+8, 8)
		p.heap.unreserve(resv.blk)
		// Segment header and entries are contiguous: {next=0, count,
		// off/val pairs} lands in one bulk write and one flush range.
		payload := resv.payloadOff()
		words = append(words[:0], 0, uint64(n))
		for _, e := range rest[:n] {
			words = append(words, e.off, e.val)
		}
		p.dev.WriteU64s(payload+redoExtNextOff, words)
		s.ac.Flush(payload, redoExtDataOff+uint64(n)*16)
		p.dev.WriteU64(prevLink, payload)
		s.ac.Flush(prevLink, 8)
		prevLink = payload + redoExtNextOff
		exts = append(exts, resv)
		rest = rest[n:]
	}

	p.dev.WriteU64(lane+laneRedoCount, uint64(len(entries)))
	s.ac.Flush(lane+laneRedoCount, 8)
	s.ac.Flush(lane+laneRedoExt, 8)
	s.ac.Drain()
	p.fence()
	// The committed flag is a single 8-byte store: the atomicity point.
	p.dev.WriteU64(lane+laneRedoState, redoCommitted)
	p.persist(lane+laneRedoState, 8)
	s.words = words
	return exts, nil
}

// redoFits reports whether n redo entries fit the lane's redo log, so
// that preparing them reserves no extension segment.
func (p *Pool) redoFits(n int) bool { return n <= p.redoCap }

// applyRedo replays a committed redo log in order and discards it.
// Replay is idempotent: recovery can re-run it after a crash at any
// point. Entry order guarantees SPP's invariant that the oid size
// field is written before the offset field that validates the oid.
func (p *Pool) applyRedo(lane uint64) {
	count := p.dev.ReadU64(lane + laneRedoCount)
	inLane := count
	if inLane > uint64(p.redoCap) {
		inLane = uint64(p.redoCap)
	}
	// Redo targets cluster heavily — a tx's {size, state} flips are 8
	// bytes apart — so the accumulator collapses most of the per-entry
	// flushes.
	s := p.getScratch()
	defer p.putScratch(s)
	apply := func(base, n uint64) {
		for i := uint64(0); i < n; i++ {
			off := p.dev.ReadU64(base + i*16)
			val := p.dev.ReadU64(base + i*16 + 8)
			p.dev.WriteU64(off, val)
			s.ac.Flush(off, 8)
		}
	}
	apply(lane+laneRedoBase, inLane)
	remaining := count - inLane
	for ext := p.dev.ReadU64(lane + laneRedoExt); ext != 0 && remaining > 0; {
		n := p.dev.ReadU64(ext + redoExtCountOff)
		if n > remaining {
			n = remaining
		}
		apply(ext+redoExtDataOff, n)
		remaining -= n
		ext = p.dev.ReadU64(ext + redoExtNextOff)
	}
	s.ac.Drain()
	p.fence()
	p.discardRedo(lane)
}

// publishRedo is prepare followed immediately by apply — the path for
// atomic (non-transactional) operations. The caller owns the lane;
// every block the entries touch must be in the arenas' reserved sets.
func (p *Pool) publishRedo(lane uint64, entries []redoEntry) error {
	exts, err := p.prepareRedo(lane, entries)
	if err != nil {
		return err
	}
	p.applyRedo(lane)
	p.releaseRedoExts(exts)
	return nil
}

// releaseRedoExts returns redo extension segments to the heap.
func (p *Pool) releaseRedoExts(exts []reservation) {
	for _, r := range exts {
		p.heap.releaseBlock(p, r)
	}
}

// discardRedo clears the lane's redo log.
func (p *Pool) discardRedo(lane uint64) {
	p.dev.WriteU64(lane+laneRedoState, redoEmpty)
	p.persist(lane+laneRedoState, 8)
}

// writeUndoEntry appends one snapshot entry to a segment whose data
// region starts at dataBase with the given used counter field. The
// entry becomes valid only once the used counter is advanced (a
// single 8-byte store), so a torn append is ignored by recovery.
// The two fences cannot be merged: the entry body must be durable
// before the used counter that validates it advances, or recovery
// parses a torn entry.
func (p *Pool) writeUndoEntry(dataBase, usedField, used, off, length uint64) {
	base := dataBase + used
	p.dev.WriteU64s(base, []uint64{off, length})
	p.dev.WriteBytes(base+16, p.dev.ReadBytes(off, length))
	p.dev.Flush(base, 16+align8(length))
	p.fence()
	p.dev.WriteU64(usedField, used+16+align8(length))
	p.persist(usedField, 8)
}

// parseUndoSegment collects the valid entries of one undo segment.
func (p *Pool) parseUndoSegment(dataBase, used uint64, entries []undoEntry) ([]undoEntry, error) {
	for cur := uint64(0); cur < used; {
		base := dataBase + cur
		off := p.dev.ReadU64(base)
		length := p.dev.ReadU64(base + 8)
		need := 16 + align8(length)
		if length == 0 || cur+need > used || off+length > p.dev.Size() || off+length < off {
			return nil, fmt.Errorf("%w: bad undo entry at %#x+%d", ErrCorruptPool, dataBase, cur)
		}
		entries = append(entries, undoEntry{off, length, base + 16})
		cur += need
	}
	return entries, nil
}

type undoEntry struct {
	off, length, data uint64
}

// rollbackUndo restores all valid undo entries — from the in-lane
// region and every extension segment — in reverse order, then
// deactivates the log. Extension blocks themselves are left to the
// caller (heap rebuild frees them during recovery, since they are in
// the uncommitted state).
func (p *Pool) rollbackUndo(undo uint64) error {
	used := p.dev.ReadU64(undo + undoUsedOff)
	if used > p.undoCap {
		return fmt.Errorf("%w: undo used %d > capacity %d", ErrCorruptPool, used, p.undoCap)
	}
	entries, err := p.parseUndoSegment(undo+undoDataOff, used, nil)
	if err != nil {
		return err
	}
	seen := 0
	for ext := p.dev.ReadU64(undo + undoExtOff); ext != 0; {
		if ext+extDataOff > p.dev.Size() || seen > 1<<20 {
			return fmt.Errorf("%w: bad undo extension chain at %#x", ErrCorruptPool, ext)
		}
		extUsed := p.dev.ReadU64(ext + extUsedOff)
		if ext+extDataOff+extUsed > p.dev.Size() {
			return fmt.Errorf("%w: undo extension at %#x overflows pool", ErrCorruptPool, ext)
		}
		entries, err = p.parseUndoSegment(ext+extDataOff, extUsed, entries)
		if err != nil {
			return err
		}
		ext = p.dev.ReadU64(ext + extNextOff)
		seen++
	}
	s := p.getScratch()
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		p.dev.WriteBytes(e.off, p.dev.ReadBytes(e.data, e.length))
		s.ac.Flush(e.off, e.length)
	}
	s.ac.Drain()
	p.putScratch(s)
	p.fence()
	p.dev.WriteU64s(undo+undoStateOff, []uint64{undoInactive, 0, 0})
	p.persist(undo, undoDataOff)
	return nil
}
