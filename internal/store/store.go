// Package store is the disk tier behind the miraged response cache: a
// content-addressed result store mapping canonical job keys to encoded
// response bytes, so warm results survive process restarts and can be
// pre-baked and shipped to new workers (DESIGN.md §13).
//
// The on-disk format is a single checksummed append-only log
// (<dir>/store.log): an 8-byte file header followed by records, each
//
//	magic   uint32  "mrc1" (little-endian on disk)
//	keyLen  uint32
//	valLen  uint32
//	crc     uint32  CRC-32C over keyLen ∥ valLen ∥ key ∥ val
//	key     keyLen bytes
//	val     valLen bytes
//
// Everything that matters lives in the recovery rules, because a cache that
// can serve corrupt bytes is worse than no cache:
//
//   - Open scans the log sequentially. A record is accepted only when its
//     magic, bounds and CRC all hold; the last accepted record for a key
//     wins.
//   - On any invalid record (bad magic, impossible lengths, CRC mismatch),
//     the scan resynchronizes: it advances one byte and searches for the
//     next record magic, so one flipped bit loses at most the record it
//     landed in, never the entries behind it.
//   - Whatever garbage remains after the last accepted record — a torn
//     write from a crash mid-append, or trailing junk — is truncated, so
//     the next append extends a clean tail.
//   - Get re-verifies the record checksum and the key bytes on every read;
//     corruption that lands after Open (or a checksum collision fabricating
//     a hit) turns into a miss plus an eviction, never into wrong bytes.
//
// MaxBytes caps the disk footprint: the in-memory index evicts
// least-recently-used entries (appends make keys "used", Gets refresh
// them), and when the log file itself outgrows the cap the store compacts —
// live records are rewritten oldest-recency-first into a temp file that
// atomically replaces the log, so a crash mid-compaction leaves either the
// old log or the new one, both valid.
//
// All methods are safe for concurrent use. The package is stdlib-only plus
// the repository's nil-safe telemetry counters.
package store

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// Log format constants. The file magic versions the whole log; bumping it
// makes old files unreadable (Open starts fresh rather than guessing).
var fileMagic = []byte("mirstor1")

const (
	recMagic   = 0x3163726d // "mrc1" little-endian
	recHdrLen  = 16         // magic + keyLen + valLen + crc
	headerLen  = 8
	maxKeyLen  = 1 << 16 // canonical job keys are short; anything past this is garbage
	logName    = "store.log"
	tmpName    = "store.log.tmp"
	defaultCap = 256 << 20 // 256 MiB
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options parameterizes Open. The zero value is usable.
type Options struct {
	// MaxBytes caps the log file's size on disk; <= 0 selects 256 MiB.
	// Eviction keeps live entries under the cap and compaction keeps the
	// file under it (a compaction halves the live set, so steady-state
	// overflow doesn't thrash).
	MaxBytes int64
	// Registry receives the store's operational counters (store.hits,
	// store.misses, store.puts, store.evictions, store.compactions,
	// store.corrupt_records, ...). nil disables instrumentation.
	Registry *telemetry.Registry
}

// Stats is a snapshot of the store's operational counters since Open.
type Stats struct {
	Hits           int64 // Get served bytes
	Misses         int64 // Get found nothing (or dropped a corrupt record)
	Puts           int64 // records appended
	PutBytes       int64 // payload bytes appended
	Evictions      int64 // LRU evictions (size cap)
	Compactions    int64 // log rewrites
	CorruptRecords int64 // records rejected by magic/bounds/CRC (Open + Get)
	TornBytes      int64 // trailing garbage truncated at Open
	Oversize       int64 // Puts skipped because one record would exceed the cap
	Recovered      int64 // live entries recovered at Open
}

// entry locates one live record in the log.
type entry struct {
	off   int64 // record start (magic)
	total int64 // full record length including header
	vlen  int64 // value length
	key   string
	elem  *list.Element // place in Store.lru
}

// Store is an open result store. Create with Open; Close releases the file.
type Store struct {
	dir      string
	maxBytes int64
	reg      *telemetry.Registry

	mu        sync.Mutex
	f         *os.File
	index     map[string]*entry
	lru       list.List // live *entry values; front = most recently used
	liveBytes int64     // bytes of live records (header included)
	logBytes  int64     // current file length
	closed    bool
	stats     Stats
}

// Open opens (creating if absent) the store in dir, recovering the log per
// the package's recovery rules. A leftover temp file from an interrupted
// compaction is removed. Open never fails on a corrupt log — corruption
// costs entries, not availability; it fails only on real I/O errors.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	_ = os.Remove(filepath.Join(dir, tmpName))
	maxBytes := opts.MaxBytes
	if maxBytes <= 0 {
		maxBytes = defaultCap
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		reg:      opts.Registry,
		index:    make(map[string]*entry),
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if s.stats.CorruptRecords > 0 {
		// Corrupt regions skipped by the scan are still dead bytes in the
		// middle of the file; compact now so the log on disk is fully valid
		// the moment Open returns (and recovery is idempotent).
		if err := s.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.count("store.recovered", s.stats.Recovered)
	s.count("store.corrupt_records", s.stats.CorruptRecords)
	s.count("store.torn_bytes", s.stats.TornBytes)
	return s, nil
}

// count adds n to a registry counter (no-op on nil registry or n == 0).
func (s *Store) count(name string, n int64) {
	if n != 0 {
		s.reg.Counter(name).Add(n)
	}
}

// recover scans the log, builds the index and truncates the torn tail.
func (s *Store) recover() error {
	data, err := os.ReadFile(filepath.Join(s.dir, logName))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(data) < headerLen || !bytes.Equal(data[:headerLen], fileMagic) {
		// Unrecognized or empty file: start fresh. The store is a cache, so
		// an unreadable log costs warmth, not correctness.
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := s.f.WriteAt(fileMagic, 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if len(data) > 0 {
			s.stats.TornBytes += int64(len(data))
		}
		s.logBytes = headerLen
		return nil
	}

	var magicBuf [4]byte
	binary.LittleEndian.PutUint32(magicBuf[:], recMagic)
	off := int64(headerLen)
	lastGood := off
	for {
		// Find the next candidate record start.
		i := bytes.Index(data[off:], magicBuf[:])
		if i < 0 {
			break
		}
		p := off + int64(i)
		rec, total, ok := parseRecord(data, p)
		if !ok {
			// Invalid candidate: resynchronize one byte past the magic.
			off = p + 1
			continue
		}
		if p > lastGood {
			// Bytes between the last accepted record and this one are an
			// unreadable region (a skipped corrupt record); they stay dead
			// in the file until compaction.
			s.stats.CorruptRecords++
		}
		s.insertLocked(rec.key, &entry{off: p, total: total, vlen: rec.vlen, key: rec.key})
		off = p + total
		lastGood = off
	}
	if int64(len(data)) > lastGood {
		s.stats.TornBytes += int64(len(data)) - lastGood
		if err := s.f.Truncate(lastGood); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.logBytes = lastGood
	s.stats.Recovered = int64(len(s.index))
	return nil
}

// parsed is the outcome of validating one record in a byte slice.
type parsed struct {
	key  string
	vlen int64
}

// parseRecord validates the record starting at data[p]: magic, bounds and
// CRC. It returns the parsed key/value-length and the record's total size.
func parseRecord(data []byte, p int64) (parsed, int64, bool) {
	n := int64(len(data))
	if p+recHdrLen > n {
		return parsed{}, 0, false
	}
	h := data[p : p+recHdrLen]
	if binary.LittleEndian.Uint32(h[0:4]) != recMagic {
		return parsed{}, 0, false
	}
	klen := int64(binary.LittleEndian.Uint32(h[4:8]))
	vlen := int64(binary.LittleEndian.Uint32(h[8:12]))
	want := binary.LittleEndian.Uint32(h[12:16])
	if klen == 0 || klen > maxKeyLen || p+recHdrLen+klen+vlen > n {
		return parsed{}, 0, false
	}
	crc := crc32.Update(0, castagnoli, h[4:12])
	crc = crc32.Update(crc, castagnoli, data[p+recHdrLen:p+recHdrLen+klen+vlen])
	if crc != want {
		return parsed{}, 0, false
	}
	key := string(data[p+recHdrLen : p+recHdrLen+klen])
	return parsed{key: key, vlen: vlen}, recHdrLen + klen + vlen, true
}

// insertLocked makes e the live entry for key (replacing any earlier one)
// and the most recently used.
func (s *Store) insertLocked(key string, e *entry) {
	if old, ok := s.index[key]; ok {
		s.lru.Remove(old.elem)
		s.liveBytes -= old.total
	}
	s.index[key] = e
	e.elem = s.lru.PushFront(e)
	s.liveBytes += e.total
}

// dropLocked removes key's entry from the index and recency list.
func (s *Store) dropLocked(e *entry) {
	s.lru.Remove(e.elem)
	s.liveBytes -= e.total
	delete(s.index, e.key)
}

// Get returns the stored bytes for key. The record is re-verified (CRC and
// key bytes) on every read: verification failure evicts the entry and
// reports a miss, so corrupt bytes can never leave the store. A hit
// refreshes the key's recency.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok || s.closed {
		s.stats.Misses++
		s.count("store.misses", 1)
		return nil, false
	}
	buf := make([]byte, e.total)
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		s.dropLocked(e)
		s.stats.CorruptRecords++
		s.stats.Misses++
		s.count("store.corrupt_records", 1)
		s.count("store.misses", 1)
		return nil, false
	}
	rec, _, valid := parseRecord(buf, 0)
	if !valid || rec.key != key {
		s.dropLocked(e)
		s.stats.CorruptRecords++
		s.stats.Misses++
		s.count("store.corrupt_records", 1)
		s.count("store.misses", 1)
		return nil, false
	}
	s.lru.MoveToFront(e.elem)
	s.stats.Hits++
	s.count("store.hits", 1)
	return buf[e.total-e.vlen:], true
}

// Put stores val under key, evicting least-recently-used entries and
// compacting the log as needed to respect the size cap. A single record
// larger than half the cap is skipped (counted, not an error): one giant
// response must not wipe the whole cache. Storing under an existing key
// replaces its value.
func (s *Store) Put(key string, val []byte) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: invalid key length %d", len(key))
	}
	total := int64(recHdrLen + len(key) + len(val))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if total > s.maxBytes/2 {
		s.stats.Oversize++
		s.count("store.oversize", 1)
		return nil
	}
	rec := make([]byte, total)
	binary.LittleEndian.PutUint32(rec[0:4], recMagic)
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(val)))
	copy(rec[recHdrLen:], key)
	copy(rec[recHdrLen+len(key):], val)
	crc := crc32.Update(0, castagnoli, rec[4:12])
	crc = crc32.Update(crc, castagnoli, rec[recHdrLen:])
	binary.LittleEndian.PutUint32(rec[12:16], crc)
	if _, err := s.f.WriteAt(rec, s.logBytes); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	e := &entry{off: s.logBytes, total: total, vlen: int64(len(val)), key: key}
	s.logBytes += total
	s.insertLocked(key, e)
	s.stats.Puts++
	s.stats.PutBytes += int64(len(val))
	s.count("store.puts", 1)
	s.count("store.put_bytes", int64(len(val)))

	// Keep the file under the cap. Live bytes can only exceed the cap when
	// the file does too, so one trigger covers both; evicting down to half
	// the cap before compacting amortizes the rewrites (each compaction
	// buys at least cap/2 bytes of appends before the next).
	if s.logBytes > s.maxBytes {
		s.evictLocked(s.maxBytes / 2)
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// evictLocked drops LRU entries until live bytes fit under limit.
func (s *Store) evictLocked(limit int64) {
	for s.liveBytes+headerLen > limit && s.lru.Len() > 0 {
		s.dropLocked(s.lru.Back().Value.(*entry))
		s.stats.Evictions++
		s.count("store.evictions", 1)
	}
}

// compactLocked rewrites live records into a fresh log (oldest recency
// first, so a reopened store's recovered order approximates recency) and
// atomically replaces the old file.
func (s *Store) compactLocked() error {
	tmpPath := filepath.Join(s.dir, tmpName)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	if _, err := tmp.Write(fileMagic); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	// New offsets are staged and applied only after the rename commits, so a
	// failed compaction leaves the index pointing into the intact old log.
	type move struct {
		e   *entry
		off int64
	}
	var moves []move
	off := int64(headerLen)
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		buf := make([]byte, e.total)
		if _, err := s.f.ReadAt(buf, e.off); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		moves = append(moves, move{e, off})
		off += e.total
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	for _, m := range moves {
		m.e.off = m.off
	}
	old := s.f
	s.f = tmp
	old.Close()
	s.logBytes = off
	s.stats.Compactions++
	s.count("store.compactions", 1)
	return nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// LiveBytes returns the bytes held by live records (headers included).
func (s *Store) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// LogBytes returns the log file's current size.
func (s *Store) LogBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logBytes
}

// Keys returns the live keys in sorted order (tests and pre-bake tooling).
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Stats returns a snapshot of the operational counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close syncs and closes the log. Further operations return misses/errors.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return s.f.Close()
}
