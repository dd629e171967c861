package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

// The session write-ahead log makes the serving state survive kill -9:
// every ruleset compile and every session state change appends a
// checksummed record, and a restarting server replays the log to
// recompile its rule sets and resume its sessions bit-identically (the
// paper's §2.9 suspend/resume state vector is tiny, which is what makes
// checkpoint-per-feed affordable).
//
// On-disk format (DESIGN.md "WAL record format"): a file header
// "CAWAL001", then records framed as
//
//	u32 LE payload length | u32 LE CRC-32C of payload | payload
//
// where payload is one JSON-encoded walRecord. CRC + length framing
// makes a torn tail (the crash landed mid-write) detectable: replay
// stops at the first record that fails its checksum or runs past EOF,
// keeping the valid prefix. Appends go straight to the file descriptor
// (no userspace buffering), so every record that was acknowledged
// before a process kill is in the page cache and survives it.
//
// The WAL keeps an in-memory map of the latest record per key (ruleset
// name or session id). Compaction — at open, and whenever the file
// exceeds maxBytes — rewrites just that live set to a temp file and
// atomically renames it over the log, so the file is bounded by the
// live state, not by history.

// walMagic is the WAL file header.
var walMagic = [8]byte{'C', 'A', 'W', 'A', 'L', '0', '0', '1'}

// walDefaultMaxBytes triggers compaction when the log file outgrows it.
const walDefaultMaxBytes = 16 << 20

// walRecord is one WAL entry. Kind selects which fields are set.
type walRecord struct {
	// Kind is "compile", "delete", "checkpoint", "close" or "nextid".
	Kind string `json:"kind"`
	// Name is the ruleset name (compile, delete).
	Name string `json:"name,omitempty"`
	// Req is the original compile request (compile) — replay recompiles
	// from it, which with a fixed Seed reproduces the same placement.
	Req *CompileRequest `json:"req,omitempty"`
	// ID is the session id (checkpoint, close).
	ID string `json:"id,omitempty"`
	// Ruleset is the session's ruleset name (checkpoint).
	Ruleset string `json:"ruleset,omitempty"`
	// SnapB64 is the session's serialized architectural state
	// (checkpoint) — the same bytes Stream.Suspend writes.
	SnapB64 string `json:"snap_b64,omitempty"`
	// NextID is the session-counter high-water mark (nextid). It has its
	// own record (not a checkpoint field) because a closed session's
	// tombstone erases its checkpoint at compaction — without this, a
	// restart could re-issue a dead session's id to a new client.
	NextID uint64 `json:"next_id,omitempty"`
}

// key returns the live-map key a record supersedes (or deletes), and
// whether the record is a tombstone. Records with no key (unknown
// kinds) are dropped at compaction.
func (r *walRecord) key() (key string, tombstone bool) {
	switch r.Kind {
	case "compile":
		return "r/" + r.Name, false
	case "delete":
		return "r/" + r.Name, true
	case "checkpoint":
		return "s/" + r.ID, false
	case "close":
		return "s/" + r.ID, true
	case "nextid":
		return "n/next", false
	}
	return "", false
}

// wal is the per-server write-ahead log. All methods are safe for
// concurrent use; the mutex is a leaf lock (nothing is acquired under
// it), so callers may hold session or server locks when appending.
type wal struct {
	col *telemetry.ServerCollector

	mu       sync.Mutex
	path     string
	f        *os.File
	size     int64
	maxBytes int64
	failed   bool
	// live holds the latest encoded payload per key; compaction rewrites
	// exactly this set (rulesets before sessions, so replay order works).
	live map[string][]byte
}

// openWAL opens (creating if needed) the session WAL in dir, replays
// its valid prefix, compacts it, and returns the log ready for appends
// plus the live records in replay order (rulesets first). maxBytes <= 0
// uses the default compaction threshold.
func openWAL(dir string, maxBytes int64, col *telemetry.ServerCollector) (*wal, []walRecord, error) {
	if maxBytes <= 0 {
		maxBytes = walDefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	w := &wal{
		col:      col,
		path:     filepath.Join(dir, "session.wal"),
		maxBytes: maxBytes,
		live:     make(map[string][]byte),
	}
	if data, err := os.ReadFile(w.path); err == nil {
		for _, payload := range walScan(data) {
			var rec walRecord
			if json.Unmarshal(payload, &rec) != nil {
				continue
			}
			w.apply(&rec, payload)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	recs := w.liveRecords()
	// Rewrite just the live set: bounds the file across restarts and
	// leaves a clean, torn-tail-free log behind.
	if err := w.compactLocked(); err != nil {
		return nil, nil, err
	}
	return w, recs, nil
}

// walScan returns the payloads of the valid record prefix of data.
func walScan(data []byte) [][]byte {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic[:]) {
		return nil
	}
	data = data[len(walMagic):]
	var out [][]byte
	for len(data) >= 8 {
		n := binary.LittleEndian.Uint32(data)
		sum := binary.LittleEndian.Uint32(data[4:])
		if n > 1<<30 || int(n) > len(data)-8 {
			break // torn tail: length runs past EOF
		}
		payload := data[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != sum {
			break // corrupt record: stop at the valid prefix
		}
		out = append(out, payload)
		data = data[8+n:]
	}
	return out
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// apply folds one record into the live map (caller holds mu or has
// exclusive access).
func (w *wal) apply(rec *walRecord, payload []byte) {
	key, tombstone := rec.key()
	if key == "" {
		return
	}
	if tombstone {
		delete(w.live, key)
		return
	}
	w.live[key] = append([]byte(nil), payload...)
}

// liveRecords decodes the live map in replay order: the session-counter
// mark, every ruleset record, then every session checkpoint.
func (w *wal) liveRecords() []walRecord {
	var recs []walRecord
	for _, prefix := range []string{"n/", "r/", "s/"} {
		for key, payload := range w.live {
			if len(key) < 2 || key[:2] != prefix {
				continue
			}
			var rec walRecord
			if json.Unmarshal(payload, &rec) == nil {
				recs = append(recs, rec)
			}
		}
	}
	return recs
}

// Append encodes and durably appends one record. Injected faults (the
// "server.wal.append" point, noted on rt) fail before any byte is written, so the
// log stays consistent and the caller may simply continue — the next
// checkpoint supersedes the lost one. A real partial write is repaired
// by truncating back to the last record boundary; if even that fails
// the WAL fail-stops (appends error out, serving continues).
func (w *wal) Append(rt *telemetry.ReqTrace, rec walRecord) error {
	payload, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("wal: encode: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed {
		return fmt.Errorf("wal: fail-stopped after an earlier write error")
	}
	if err := faults.Check(rt, "server.wal.append"); err != nil {
		if w.col != nil {
			w.col.WALErrors.Inc()
		}
		return err
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.f.Write(frame[:]); err != nil {
		return w.writeFailed(err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return w.writeFailed(err)
	}
	w.size += int64(8 + len(payload))
	w.apply(&rec, payload)
	if w.col != nil {
		w.col.WALRecords.Inc()
	}
	if w.size > w.maxBytes {
		if err := w.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// writeFailed repairs a partial append by truncating to the last record
// boundary, or fail-stops the WAL if the file cannot be repaired.
func (w *wal) writeFailed(err error) error {
	if w.col != nil {
		w.col.WALErrors.Inc()
	}
	if terr := w.f.Truncate(w.size); terr != nil {
		w.failed = true
	} else if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
		w.failed = true
	}
	return fmt.Errorf("wal: append: %w", err)
}

// compactLocked rewrites the live set to a temp file and atomically
// renames it over the log. Caller holds mu (or has exclusive access).
func (w *wal) compactLocked() error {
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	size := int64(0)
	write := func(b []byte) bool {
		if err != nil {
			return false
		}
		var n int
		n, err = f.Write(b)
		size += int64(n)
		return err == nil
	}
	write(walMagic[:])
	// Rulesets before sessions: replay must compile before it resumes.
	for _, prefix := range []string{"n/", "r/", "s/"} {
		for key, payload := range w.live {
			if len(key) < 2 || key[:2] != prefix {
				continue
			}
			var frame [8]byte
			binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
			if !write(frame[:]) || !write(payload) {
				break
			}
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, w.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if w.f != nil {
		// The compacted log was already synced and renamed over w.path;
		// this handle refers to the replaced inode, so its close result
		// cannot affect durability.
		//cavet:ignore errdrop superseded handle, rename above is the durability point
		w.f.Close()
	}
	w.f, err = os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.failed = true
		return fmt.Errorf("wal: compact: reopen: %w", err)
	}
	w.size = size
	return nil
}

// Close releases the log file. Appends after Close error out.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failed = true
	if w.f != nil {
		err := w.f.Close()
		w.f = nil
		return err
	}
	return nil
}
