package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/retry"
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
// name or session id) and the highest session number any record has
// named. Compaction — at open, and whenever the file exceeds maxBytes —
// rewrites just that mark and the live set to a temp file and
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
	// NextID is the session-counter high-water mark (nextid). Compaction
	// writes the mark as its own record, not a checkpoint field, because
	// a closed session's tombstone erases its checkpoint — without it, a
	// restart could re-issue a dead session's id to a new client.
	NextID uint64 `json:"next_id,omitempty"`
}

// key returns the live-map key a record supersedes (or deletes), and
// whether the record is a tombstone. Records with no key (nextid, which
// only moves the mark, and unknown kinds) are not live.
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
	}
	return "", false
}

// markRecord is the nextid record naming session id's number. OpenSession
// logs it ahead of the session's first checkpoint, so the number is on
// disk even when that checkpoint's append fails and the process dies.
func markRecord(id string) walRecord {
	n, _ := parseSessionID(id)
	return walRecord{Kind: "nextid", NextID: n}
}

// parseSessionID extracts the numeric counter from an "s%08d" id.
func parseSessionID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 's' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	return n, err == nil
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
	// exactly this set, in replay order (eachLive).
	live map[string][]byte
	// next is the session high-water mark: the highest session number
	// any applied record named. A restarted server numbers from it.
	next uint64
	// buf is Append's reused frame buffer, so a record is one Write.
	buf []byte
}

// openWAL opens (creating if needed) the session WAL in dir, replays
// its valid prefix, compacts it, and returns the log ready for appends
// plus the live records in replay order (rulesets first); the log's
// next holds the session mark. maxBytes <= 0 uses the default
// compaction threshold.
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

// frame appends one record frame for payload to dst. walScan is its one
// reader.
func frame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
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

// apply folds one record into the session mark and the live map (caller
// holds mu or has exclusive access).
func (w *wal) apply(rec *walRecord, payload []byte) {
	w.next = max(w.next, rec.NextID)
	if n, ok := parseSessionID(rec.ID); ok {
		w.next = max(w.next, n)
	}
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

// eachLive calls fn on every live payload in replay order: rule sets,
// then sessions, because replay must compile before it resumes.
func (w *wal) eachLive(fn func(payload []byte)) {
	for _, prefix := range [...]string{"r/", "s/"} {
		for key, payload := range w.live {
			if strings.HasPrefix(key, prefix) {
				fn(payload)
			}
		}
	}
}

// liveRecords decodes the live set in replay order.
func (w *wal) liveRecords() []walRecord {
	var recs []walRecord
	w.eachLive(func(payload []byte) {
		var rec walRecord
		if json.Unmarshal(payload, &rec) == nil {
			recs = append(recs, rec)
		}
	})
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
	w.buf = frame(w.buf[:0], payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return w.writeFailed(err)
	}
	w.size += int64(len(w.buf))
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

// compactLocked rewrites the session mark, then the live set, to a temp
// file and atomically renames it over the log. Caller holds mu (or has
// exclusive access).
func (w *wal) compactLocked() error {
	data := append([]byte(nil), walMagic[:]...)
	if w.next > 0 {
		mark, err := json.Marshal(&walRecord{Kind: "nextid", NextID: w.next})
		if err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
		data = frame(data, mark)
	}
	w.eachLive(func(payload []byte) { data = frame(data, payload) })
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	if _, err = f.Write(data); err == nil {
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
	w.size = int64(len(data))
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

// ReplayStats summarizes what AttachWAL recovered.
type ReplayStats struct {
	// Rulesets and Sessions count what was recompiled and resumed.
	Rulesets, Sessions int
	// SkippedSessions counts checkpoints that could not be resumed (their
	// ruleset failed to recompile, or the snapshot was rejected).
	SkippedSessions int
}

// AttachWAL opens (creating if needed) the session write-ahead log in
// dir, replays it — recompiling every logged rule set and resuming every
// checkpointed session under its original session id — and then starts
// logging this server's own state changes to it. Call it after New and
// before serving traffic; sessions resumed from the log continue
// bit-identically with the stream state they had at their last
// acknowledged feed (the paper's §2.9 suspend/resume state vector,
// made durable).
func (s *Server) AttachWAL(dir string) (*ReplayStats, error) {
	if s.wal.Load() != nil {
		return nil, fmt.Errorf("wal: already attached")
	}
	w, recs, err := openWAL(dir, 0, s.col)
	if err != nil {
		return nil, err
	}
	// One pass: recs come rule sets first, so every rule set has
	// compiled before a checkpoint naming it resumes.
	st := &ReplayStats{}
	for _, rec := range recs {
		switch {
		case rec.Kind == "checkpoint":
			if s.resumeFromWAL(&rec) {
				st.Sessions++
			} else {
				st.SkippedSessions++
			}
		case rec.Req != nil: // a compile
			if _, err := s.Compile(context.Background(), rec.Name, *rec.Req); err != nil {
				// The checkpoints naming it are counted skipped.
				s.log.Warn("wal replay: recompile failed", "ruleset", rec.Name, "error", err)
			} else {
				st.Rulesets++
			}
		}
	}
	s.col.WALReplayed.Add(int64(len(recs)))
	s.mu.Lock()
	s.nextID = max(s.nextID, w.next)
	s.mu.Unlock()
	s.wal.Store(w)
	s.log.Info("wal replay finished",
		"records", len(recs), "rulesets", st.Rulesets,
		"sessions", st.Sessions, "skipped_sessions", st.SkippedSessions)
	return st, nil
}

// resumeFromWAL restores one checkpointed session, preserving its id so
// clients reconnect to the session they were feeding before the crash.
func (s *Server) resumeFromWAL(rec *walRecord) bool {
	rs, err := s.ruleset(rec.Ruleset)
	if err != nil {
		return false
	}
	stream, err := resume(context.Background(), rs, rec.SnapB64)
	if err != nil {
		return false
	}
	if err := s.addSession(&session{id: rec.ID, ruleset: rec.Ruleset, stream: stream, lastUsed: time.Now()}); err != nil {
		stream.Close()
		return false
	}
	s.col.SessionsResumed.Inc()
	return true
}

// walAppend logs one record when a WAL is attached, recording the append
// as a "wal" stage span on rt (nil rt is fine — background callers like
// the reaper and Shutdown have no request trace). Append failures are
// already counted (ca_wal_errors_total) and must not fail the serving
// operation that triggered them: the client's response is the source of
// truth, the WAL is best-effort durability whose next checkpoint
// supersedes a lost one.
func (s *Server) walAppend(rt *telemetry.ReqTrace, rec walRecord) {
	w := s.wal.Load()
	if w == nil {
		return
	}
	sp := rt.StartStage("wal")
	defer sp.End()
	s.walAppendRetry(rt, w, rec)
}

// walTombstoneRetry is the tombstone append policy: a handful of
// near-immediate attempts through the shared internal/retry helper (the
// same audited implementation the cluster layer uses for inter-node
// RPCs). Delays stay microscopic because appends may run under sess.mu.
var walTombstoneRetry = retry.Policy{
	MaxAttempts: 5,
	BaseDelay:   200 * time.Microsecond,
	MaxDelay:    2 * time.Millisecond,
}

// walAppendRetry is the span-free append core shared by walAppend and
// walCheckpoint (which record their own "wal" spans — exactly one per
// logged operation). Every injected append failure is noted on rt by
// the seam itself, one note per attempt that fired.
func (s *Server) walAppendRetry(rt *telemetry.ReqTrace, w *wal, rec walRecord) {
	// Tombstones get retries where ordinary records don't: a lost
	// checkpoint is superseded by the session's next checkpoint, but a
	// lost close/delete tombstone has no successor record — replay would
	// resurrect state the client was told is gone.
	policy := retry.Policy{MaxAttempts: 1, BaseDelay: -1}
	if _, tombstone := rec.key(); tombstone {
		policy = walTombstoneRetry
	}
	attempts, err := policy.Attempts(context.Background(), func(context.Context) error {
		return w.Append(rt, rec)
	})
	if err != nil {
		s.log.Warn("wal append failed", "kind", rec.Kind, "attempts", attempts, "err", err)
	}
}

// walCheckpoint logs a session's current architectural state so a
// crashed server resumes it from exactly this point, recorded as one
// "wal" stage span on rt (serialization plus append), and returns the
// snapshot it logged so a caller under the same lock need not serialize
// the same state again. Caller must hold sess.mu (or otherwise own the
// stream exclusively); the Suspend — which the paper's tiny state
// vectors make cheap — is skipped entirely, and "" returned, when no WAL
// is attached.
func (s *Server) walCheckpoint(rt *telemetry.ReqTrace, sess *session) string {
	w := s.wal.Load()
	if w == nil {
		return ""
	}
	sp := rt.StartStage("wal")
	defer sp.End()
	snap, size, err := sess.snapshotB64()
	if err != nil {
		return ""
	}
	sp.SetAttr("bytes", int64(size))
	s.walAppendRetry(rt, w, walRecord{
		Kind:    "checkpoint",
		ID:      sess.id,
		Ruleset: sess.ruleset,
		SnapB64: snap,
	})
	return snap
}
