package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync/atomic"
)

// Key and value sizes of every workload.
const (
	keySize   = 16
	valueSize = 256
)

// Value layout: the key it was written under, the writing connection,
// the write's version, filler derived from key and version, and a
// CRC-32C over everything before it.
const (
	vKey     = 0
	vWriter  = keySize
	vVersion = vWriter + 1
	vFiller  = vVersion + 4
	vSum     = valueSize - 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Verification errors, one per way a value can be wrong.
var (
	errWrongKey = errors.New("value belongs to another key")
	errTorn     = errors.New("value checksum mismatch")
	errStale    = errors.New("value version older than the last acknowledged put")
	errFuture   = errors.New("value version newer than any put issued")
	errWriter   = errors.New("value written by a connection that does not own the key")
)

// appendKey appends the 16-byte zero-padded decimal form of key index i.
func appendKey(dst []byte, i int) []byte {
	var b [20]byte
	d := strconv.AppendUint(b[:0], uint64(i), 10)
	for n := len(d); n < keySize; n++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

func makeKey(i int) []byte { return appendKey(make([]byte, 0, keySize), i) }

// owner is the connection that writes key index i: each connection
// puts only its own half of the key space.
func owner(i int) byte { return byte(i & 1) }

// encodeValue fills v (valueSize bytes) with the value version ver of
// key, written by connection writer.
func encodeValue(v, key []byte, writer byte, ver uint32) {
	copy(v[vKey:vWriter], key)
	v[vWriter] = writer
	binary.LittleEndian.PutUint32(v[vVersion:], ver)
	x := binary.LittleEndian.Uint64(key[keySize-8:]) ^ uint64(ver)<<32
	for i := vFiller; i < vSum; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], z^z>>31)
		copy(v[i:vSum], w[:])
	}
	binary.LittleEndian.PutUint32(v[vSum:], crc32.Checksum(v[:vSum], castagnoli))
}

// decodeValue checks that v is an intact value of key and returns its
// writer and version.
func decodeValue(v, key []byte) (writer byte, ver uint32, err error) {
	if len(v) != valueSize {
		return 0, 0, fmt.Errorf("%w: %d bytes", errTorn, len(v))
	}
	if crc32.Checksum(v[:vSum], castagnoli) != binary.LittleEndian.Uint32(v[vSum:]) {
		return 0, 0, errTorn
	}
	if !bytes.Equal(v[vKey:vWriter], key) {
		return 0, 0, errWrongKey
	}
	return v[vWriter], binary.LittleEndian.Uint32(v[vVersion:]), nil
}

// ledger records, per key index, the newest version whose put was
// issued and the newest whose put was acknowledged. Only the owning
// connection stores; any connection loads. A reader loads acked before
// it sends its request and issued after the reply, so a value must lie
// between the two: older means an acknowledged put was lost, newer
// means a value nobody wrote.
type ledger struct {
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

func newLedger(keys int) *ledger {
	return &ledger{issued: make([]atomic.Uint32, keys), acked: make([]atomic.Uint32, keys)}
}

// check verifies value v read for key index i, given the acknowledged
// version loaded before the request was sent.
func (l *ledger) check(v []byte, i int, key []byte, ackedBefore uint32) error {
	w, ver, err := decodeValue(v, key)
	if err != nil {
		return err
	}
	if w != owner(i) {
		return fmt.Errorf("%w: key %s writer %d", errWriter, key, w)
	}
	if ver < ackedBefore {
		return fmt.Errorf("%w: key %s version %d < %d", errStale, key, ver, ackedBefore)
	}
	if issued := l.issued[i].Load(); ver > issued {
		return fmt.Errorf("%w: key %s version %d > %d", errFuture, key, ver, issued)
	}
	return nil
}
