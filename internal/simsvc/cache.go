package simsvc

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mallacc/internal/faults"
	"mallacc/internal/telemetry"
)

// Cache is the content-addressed result store: an in-memory LRU of
// serialized reports keyed by canonical-spec hash, with an optional
// write-through on-disk tier so results survive daemon restarts. Values
// are treated as immutable byte slices; callers must not modify what Get
// returns.
//
// Disk entries are self-validating: every file carries a versioned header
// with a CRC32 and payload length (see encodeEntry). A file that fails
// validation — truncated by a crash, bit-flipped by bad storage, or
// written by something else entirely — is quarantined into
// <dir>/quarantine/ and treated as a miss, so the report is recomputed
// and rewritten instead of poisoning results. A clean daemon never trusts
// bytes it cannot prove it wrote.
type Cache struct {
	mu      sync.Mutex
	cap     int
	dir     string
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element holding cacheEntry

	hits, misses, diskHits, evictions, quarantined atomic.Uint64
}

type cacheEntry struct {
	key string
	val []byte
}

// DefaultCacheEntries is the in-memory LRU capacity when the config leaves
// it unset.
const DefaultCacheEntries = 256

// QuarantineDir is the subdirectory corrupt entries are moved into.
const QuarantineDir = "quarantine"

// NewCache builds a cache holding up to capacity reports in memory
// (DefaultCacheEntries when <= 0). A non-empty dir enables the disk tier:
// every stored report is also written to dir/<key>.json and disk entries
// are promoted back into memory on first use.
func NewCache(capacity int, dir string) (*Cache, error) {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache dir: %w", err)
		}
	}
	return &Cache{
		cap:     capacity,
		dir:     dir,
		order:   list.New(),
		entries: map[string]*list.Element{},
	}, nil
}

// entryMagic heads every on-disk cache entry. The version is part of the
// magic: a future format change bumps it and v1 files simply quarantine.
const entryMagic = "mallacc-cache v1"

// maxEntryBytes bounds how much of a disk file the loader will read; a
// report is a few hundred KiB, so anything near this size is not ours.
const maxEntryBytes = 64 << 20

// encodeEntry frames a report for disk: a single header line
// "mallacc-cache v1 <crc32hex> <len>\n" followed by the payload bytes.
// The encoding is canonical — decodeEntry re-encodes to identical bytes —
// which is what lets the fuzzer assert a clean round trip.
func encodeEntry(val []byte) []byte {
	header := fmt.Sprintf("%s %08x %d\n", entryMagic, crc32.ChecksumIEEE(val), len(val))
	out := make([]byte, 0, len(header)+len(val))
	out = append(out, header...)
	return append(out, val...)
}

// decodeEntry validates a framed disk entry and returns its payload. Any
// deviation — missing or malformed header, wrong magic or version, length
// mismatch (truncation or trailing garbage), checksum mismatch — is an
// error; the caller quarantines the file.
func decodeEntry(b []byte) ([]byte, error) {
	if len(b) > maxEntryBytes {
		return nil, fmt.Errorf("entry exceeds %d bytes", maxEntryBytes)
	}
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	header, payload := string(b[:nl]), b[nl+1:]
	rest, ok := strings.CutPrefix(header, entryMagic+" ")
	if !ok {
		return nil, fmt.Errorf("bad magic")
	}
	crcHex, lenDec, ok := strings.Cut(rest, " ")
	if !ok {
		return nil, fmt.Errorf("malformed header")
	}
	crc, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil || len(crcHex) != 8 {
		return nil, fmt.Errorf("bad checksum field %q", crcHex)
	}
	n, err := strconv.ParseUint(lenDec, 10, 63)
	if err != nil {
		return nil, fmt.Errorf("bad length field %q", lenDec)
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload is %d bytes, header says %d", len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); uint32(crc) != got {
		return nil, fmt.Errorf("checksum mismatch: header %08x, payload %08x", crc, got)
	}
	// Strictness check: the canonical re-encoding must reproduce the
	// input exactly (rejects, e.g., leading zeros in the length field).
	if header != fmt.Sprintf("%s %08x %d", entryMagic, uint32(crc), n) {
		return nil, fmt.Errorf("non-canonical header %q", header)
	}
	return payload, nil
}

// Get returns the stored report for key. A memory miss falls through to
// the disk tier (when enabled), promoting the file back into the LRU; a
// disk entry that fails validation is quarantined and reported as a miss
// so the caller recomputes it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		val := el.Value.(cacheEntry).val
		c.mu.Unlock()
		c.hits.Add(1)
		return val, true
	}
	c.mu.Unlock()

	if c.dir != "" && faults.Inject(faults.PointCacheRead) == nil {
		// Keys are hex digests produced by this package, so the path join
		// cannot escape the cache directory.
		path := filepath.Join(c.dir, key+".json")
		if b, err := os.ReadFile(path); err == nil {
			payload, derr := decodeEntry(b)
			if derr != nil {
				c.quarantined.Add(1)
				quarantineEntry(c.dir, path)
			} else {
				c.diskHits.Add(1)
				c.hits.Add(1)
				c.insert(key, payload)
				return payload, true
			}
		}
	}
	c.misses.Add(1)
	return nil, false
}

// quarantineEntry moves a corrupt disk entry into dir/quarantine/ under
// its own name (never deletes it — the bytes are evidence). If the move
// itself fails the file is removed so it cannot be re-read forever.
func quarantineEntry(dir, path string) {
	qdir := filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			return
		}
	}
	os.Remove(path)
}

// Put stores a report under key in memory and, when the disk tier is
// enabled, on disk (writeEntry). The disk tier is best-effort: a failed
// write leaves the report in memory only.
func (c *Cache) Put(key string, val []byte) {
	c.insert(key, val)
	if c.dir == "" {
		return
	}
	if faults.Inject(faults.PointCacheWrite) != nil {
		return // disk tier is best-effort; memory tier already holds it
	}
	_ = writeEntry(c.dir, filepath.Join(c.dir, key+".json"), val) // best-effort, as above
}

// writeEntry stores val at path framed with a checksummed header
// (encodeEntry): written to a temp file in dir, fsynced, and renamed into
// place — so a crash at any instant leaves either the old entry, no entry,
// or the complete new entry, and never a short-but-renamed file.
func writeEntry(dir, path string, val []byte) error {
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	if _, err := tmp.Write(encodeEntry(val)); err != nil {
		tmp.Close()
		return err
	}
	// fsync before rename: rename is atomic in the namespace, but without
	// the sync a crash can persist the rename and not the data, leaving a
	// short-but-renamed entry.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func (c *Cache) insert(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value = cacheEntry{key: key, val: val}
		return
	}
	c.entries[key] = c.order.PushFront(cacheEntry{key: key, val: val})
	for len(c.entries) > c.cap {
		last := c.order.Back()
		ent := last.Value.(cacheEntry)
		c.order.Remove(last)
		delete(c.entries, ent.key)
		c.evictions.Add(1) // memory only; the disk copy, if any, stays
	}
}

// Keys returns every content key the cache holds, in-memory and (when the
// disk tier is enabled) on disk, deduplicated and sorted. This is the
// drain hand-off's work list: everything a departing node can push to the
// survivors. Disk files that do not look like content addresses (temp
// files, the quarantine dir) are skipped.
func (c *Cache) Keys() []string {
	seen := map[string]bool{}
	c.mu.Lock()
	for k := range c.entries {
		seen[k] = true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if ents, err := os.ReadDir(c.dir); err == nil {
			for _, e := range ents {
				name, ok := strings.CutSuffix(e.Name(), ".json")
				if ok && !e.IsDir() && keyLooksHashed(name) {
					seen[name] = true
				}
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// keyLooksHashed reports whether name is a 64-char lowercase-hex content
// address (same shape cacheKeyOK accepts at the HTTP layer).
func keyLooksHashed(name string) bool {
	if len(name) != 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Quarantined returns how many corrupt disk entries were quarantined.
func (c *Cache) Quarantined() uint64 { return c.quarantined.Load() }

// RegisterMetrics publishes the cache counters under simsvc.cache.*.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("simsvc.cache.hits", c.hits.Load)
	reg.Counter("simsvc.cache.misses", c.misses.Load)
	reg.Counter("simsvc.cache.disk.hits", c.diskHits.Load)
	reg.Counter("simsvc.cache.evictions", c.evictions.Load)
	reg.Counter("simsvc.cache.quarantined", c.quarantined.Load)
	reg.Gauge("simsvc.cache.entries", func() float64 { return float64(c.Len()) })
}
