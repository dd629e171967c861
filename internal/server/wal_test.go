package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cacheautomaton/internal/faults"
	"cacheautomaton/internal/telemetry"
)

func walPath(dir string) string { return filepath.Join(dir, "session.wal") }

// TestWALRoundTrip appends records of every kind and reopens the log,
// checking the live set honors supersession and tombstones.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	col := telemetry.NewServerCollector(telemetry.NewRegistry())
	w, recs, err := openWAL(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	must := func(rec walRecord) {
		t.Helper()
		if err := w.Append(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	must(walRecord{Kind: "compile", Name: "ids", Req: &CompileRequest{Patterns: []string{"a"}}})
	must(walRecord{Kind: "compile", Name: "ids", Req: &CompileRequest{Patterns: []string{"b"}}}) // supersedes
	must(walRecord{Kind: "compile", Name: "gone", Req: &CompileRequest{Patterns: []string{"c"}}})
	must(walRecord{Kind: "delete", Name: "gone"}) // tombstones
	must(walRecord{Kind: "checkpoint", ID: "s00000001", Ruleset: "ids", SnapB64: "AAAA"})
	must(walRecord{Kind: "checkpoint", ID: "s00000001", Ruleset: "ids", SnapB64: "BBBB"}) // supersedes
	must(walRecord{Kind: "checkpoint", ID: "s00000002", Ruleset: "ids", SnapB64: "CCCC"})
	must(walRecord{Kind: "close", ID: "s00000002"}) // tombstones
	w.Close()

	_, recs, err = openWAL(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (latest compile + latest checkpoint): %+v", len(recs), recs)
	}
	// Replay order: rulesets strictly before sessions.
	if recs[0].Kind != "compile" || recs[0].Name != "ids" || len(recs[0].Req.Patterns) == 0 || recs[0].Req.Patterns[0] != "b" {
		t.Fatalf("first replayed record = %+v, want latest ids compile", recs[0])
	}
	if recs[1].Kind != "checkpoint" || recs[1].ID != "s00000001" || recs[1].SnapB64 != "BBBB" {
		t.Fatalf("second replayed record = %+v, want latest s00000001 checkpoint", recs[1])
	}
}

// TestWALTornTail corrupts the file mid-record and checks replay keeps
// exactly the valid prefix, and that compaction-at-open repairs the file.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	col := telemetry.NewServerCollector(telemetry.NewRegistry())
	w, _, err := openWAL(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(nil, walRecord{Kind: "checkpoint", ID: fmt.Sprintf("s%08d", i+1), Ruleset: "r", SnapB64: "AA"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Tear the tail: chop the last record mid-payload.
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir), data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	w2, recs, err := openWAL(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn-tail replay returned %d records, want 2", len(recs))
	}
	w2.Close()

	// Corrupt a checksum in the middle: replay stops before it.
	data, err = os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// First record starts right after the magic: flip a CRC byte.
	data[len(walMagic)+4] ^= 0xff
	if err := os.WriteFile(walPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w3, recs, err := openWAL(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("corrupt-first-record replay returned %d records, want 0", len(recs))
	}
	w3.Close()
}

// TestWALScanRejectsBadMagic checks a foreign file replays as empty.
func TestWALScanRejectsBadMagic(t *testing.T) {
	if got := walScan([]byte("not a wal file at all")); got != nil {
		t.Fatalf("walScan on foreign bytes returned %d records", len(got))
	}
	// A length that runs past EOF is a torn tail, not a crash.
	data := append([]byte{}, walMagic[:]...)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:], 1<<20)
	data = append(data, frame[:]...)
	if got := walScan(data); got != nil {
		t.Fatalf("overlong frame returned %d records", len(got))
	}
}

// TestWALCompaction drives the log past maxBytes and checks it shrinks
// to the live set while keeping the latest state.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	col := telemetry.NewServerCollector(telemetry.NewRegistry())
	w, _, err := openWAL(dir, 4096, col)
	if err != nil {
		t.Fatal(err)
	}
	// A closed session leaves no live record, but its number must
	// survive every compaction below as the session mark.
	for _, rec := range []walRecord{
		{Kind: "checkpoint", ID: "s00000007", Ruleset: "r", SnapB64: "AA"},
		{Kind: "close", ID: "s00000007"},
	} {
		if err := w.Append(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	// Re-checkpoint one session far past the threshold: the live set is
	// one record, so the file must stay near one record's size.
	for i := 0; i < 500; i++ {
		if err := w.Append(nil, walRecord{Kind: "checkpoint", ID: "s00000001", Ruleset: "r", SnapB64: fmt.Sprintf("%04d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	fi, err := os.Stat(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 4096 {
		t.Fatalf("compaction left %d bytes, want <= maxBytes 4096", fi.Size())
	}
	w, recs, err := openWAL(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != 1 || recs[0].SnapB64 != "0499" {
		t.Fatalf("after compaction replay = %+v, want single latest checkpoint", recs)
	}
	if w.next != 7 {
		t.Fatalf("session mark after compaction = %d, want the closed s00000007's 7", w.next)
	}
}

// TestWALInjectedAppendFault checks an injected append fault fails the
// append before any byte lands, counts ca_wal_errors_total, and leaves
// the log consistent for subsequent appends.
func TestWALInjectedAppendFault(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	col := telemetry.NewServerCollector(reg)
	w, _, err := openWAL(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.NewInjector(1, map[string]faults.Rule{
		"server.wal.append": {Rate: 1},
	}))
	err = w.Append(nil, walRecord{Kind: "checkpoint", ID: "s00000001", Ruleset: "r", SnapB64: "AA"})
	faults.Disable()
	if !faults.IsInjected(err) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := col.WALErrors.Value(); got != 1 {
		t.Fatalf("WALErrors = %d, want 1", got)
	}
	// The log must still accept the retry.
	if err := w.Append(nil, walRecord{Kind: "checkpoint", ID: "s00000001", Ruleset: "r", SnapB64: "BB"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs, err := openWAL(dir, 0, col)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].SnapB64 != "BB" {
		t.Fatalf("replay after injected fault = %+v, want the retried record only", recs)
	}
}

// TestWALAppendFailureLogsTheError: the "wal append failed" warning
// carries the append's error, not only its kind and attempt count.
func TestWALAppendFailureLogsTheError(t *testing.T) {
	var logs bytes.Buffer
	s := New(Config{Registry: telemetry.NewRegistry(), Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.AttachWAL(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	logs.Reset()
	faults.Enable(faults.NewInjector(1, map[string]faults.Rule{
		"server.wal.append": {Rate: 1},
	}))
	_, err := s.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	faults.Disable()
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for dec := json.NewDecoder(&logs); dec.More(); {
		var line struct{ Msg, Kind, Err string }
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Msg != "wal append failed" {
			continue
		}
		failed++
		if !strings.Contains(line.Err, "injected fault at server.wal.append") {
			t.Errorf("%s append logged err %q, want the append's error", line.Kind, line.Err)
		}
	}
	if failed == 0 {
		t.Error(`no "wal append failed" line logged`)
	}
}

// TestServerWALReplay exercises the full server path: compile, open,
// feed, restart from the same WAL dir, and check the resumed session
// continues from the same position under the same id.
func TestServerWALReplay(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Registry: telemetry.NewRegistry()})
	if _, err := s1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	info, err := s1.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := s1.Feed(context.Background(), info.Session, FeedRequest{Chunk: "xx needle yy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Matches) != 1 {
		t.Fatalf("feed found %d matches, want 1", len(fr.Matches))
	}
	// Also open-and-close a session: its tombstone must prevent resurrection.
	info2, err := s1.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseSession(context.Background(), info2.Session); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Shutdown, just drop the server and reopen the dir.
	// (The OS page cache holds the appended records; openWAL reads the file.)

	reg2 := telemetry.NewRegistry()
	s2 := New(Config{Registry: reg2})
	st, err := s2.AttachWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	if st.Rulesets != 1 || st.Sessions != 1 || st.SkippedSessions != 0 {
		t.Fatalf("replay stats = %+v, want 1 ruleset, 1 session", st)
	}
	col2 := telemetry.NewServerCollector(reg2)
	_ = col2
	sessions := s2.Sessions()
	if len(sessions) != 1 || sessions[0].Session != info.Session {
		t.Fatalf("resumed sessions = %+v, want only %s", sessions, info.Session)
	}
	if sessions[0].Pos != fr.Pos {
		t.Fatalf("resumed pos = %d, want %d", sessions[0].Pos, fr.Pos)
	}
	// The resumed stream must keep matching, including a pattern that
	// straddles the crash point.
	fr2, err := s2.Feed(context.Background(), info.Session, FeedRequest{Chunk: " more needle"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr2.Matches) != 1 {
		t.Fatalf("post-resume feed found %d matches, want 1", len(fr2.Matches))
	}
	// New sessions must not collide with replayed ids.
	info3, err := s2.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	if info3.Session == info.Session || info3.Session == info2.Session {
		t.Fatalf("new session id %s collides with a replayed id", info3.Session)
	}
}

// TestServerWALCrossCrashMatchContinuity splits a match across the
// crash: "nee" before, "dle" after. The resumed state vector must carry
// the partial NFA activity over the restart.
func TestServerWALCrossCrashMatchContinuity(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Registry: telemetry.NewRegistry()})
	if _, err := s1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	info, err := s1.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Feed(context.Background(), info.Session, FeedRequest{Chunk: "xx nee"}); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Registry: telemetry.NewRegistry()})
	if _, err := s2.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	fr, err := s2.Feed(context.Background(), info.Session, FeedRequest{Chunk: "dle yy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Matches) != 1 {
		t.Fatalf("straddling match not found after resume: %+v", fr.Matches)
	}
	if fr.Matches[0].Offset != 8 { // "xx needle"[8] = 'e' (last symbol)
		t.Fatalf("straddling match offset = %d, want 8", fr.Matches[0].Offset)
	}
}

// TestShutdownKeepsCheckpoints checks graceful drain leaves session
// checkpoints in the WAL (a drained server's successor resumes them),
// while an explicit close tombstones.
func TestShutdownKeepsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Registry: telemetry.NewRegistry()})
	if _, err := s1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	info, err := s1.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Registry: telemetry.NewRegistry()})
	st, err := s2.AttachWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	if st.Sessions != 1 {
		t.Fatalf("drained session not resumed: %+v", st)
	}
	got := s2.Sessions()
	if len(got) != 1 || got[0].Session != info.Session {
		t.Fatalf("sessions after graceful restart = %+v", got)
	}
}

// TestDeleteRulesetRefusedWhileDraining pins the drain gate on delete:
// after Shutdown has closed the WAL, a delete must answer 503 rather
// than answer OK and lose its tombstone — a restart from the same WAL
// then still serves the rule set, exactly as the refusal said.
func TestDeleteRulesetRefusedWhileDraining(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Registry: telemetry.NewRegistry()})
	if _, err := s1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Compile(context.Background(), "x", CompileRequest{Patterns: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s1.DeleteRuleset(context.Background(), "x"); statusOf(err) != 503 {
		t.Fatalf("delete after Shutdown = %v, want 503", err)
	}

	s2 := New(Config{Registry: telemetry.NewRegistry()})
	if _, err := s2.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	if _, err := s2.Ruleset("x"); err != nil {
		t.Fatalf("rule set refused a delete but is gone after restart: %v", err)
	}
}

// TestFeedCheckpointIsTheLoggedCheckpoint pins the router-facing feed:
// the snapshot a checkpointing feed hands back is the one it logged —
// the same string, serialized once under the session lock — and a server
// without a WAL still hands one back.
func TestFeedCheckpointIsTheLoggedCheckpoint(t *testing.T) {
	for _, withWAL := range []bool{true, false} {
		s := New(Config{Registry: telemetry.NewRegistry()})
		if withWAL {
			if _, err := s.AttachWAL(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Compile(context.Background(), "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
			t.Fatal(err)
		}
		info, err := s.OpenSession(context.Background(), OpenSessionRequest{Ruleset: "ids"})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := s.Feed(context.Background(), info.Session, FeedRequest{Chunk: "xx need", Checkpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		if fr.SnapshotB64 == "" {
			t.Fatalf("wal=%v: checkpointing feed returned no snapshot", withWAL)
		}
		if !withWAL {
			continue
		}
		var logged []string
		for _, rec := range s.wal.Load().liveRecords() {
			if rec.Kind == "checkpoint" && rec.ID == info.Session {
				logged = append(logged, rec.SnapB64)
			}
		}
		if len(logged) != 1 || logged[0] != fr.SnapshotB64 {
			t.Fatalf("feed returned %q, the WAL holds %q", fr.SnapshotB64, logged)
		}
	}
}

// TestWALNeverReissuesASessionID: an open whose WAL appends all failed
// logs nothing for its id, but the session's later checkpoint and close
// tombstone both name it — so a restarted server must not hand the same
// id to a new client.
func TestWALNeverReissuesASessionID(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1 := New(Config{Registry: telemetry.NewRegistry()})
	if _, err := s1.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Compile(ctx, "ids", CompileRequest{Patterns: []string{"needle"}}); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.NewInjector(1, map[string]faults.Rule{
		"server.wal.append": {Rate: 1},
	}))
	first, err := s1.OpenSession(ctx, OpenSessionRequest{Ruleset: "ids"})
	faults.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Feed(ctx, first.Session, FeedRequest{Chunk: "xx needle"}); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseSession(ctx, first.Session); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Registry: telemetry.NewRegistry()})
	if _, err := s2.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Shutdown(ctx) })
	next, err := s2.OpenSession(ctx, OpenSessionRequest{Ruleset: "ids"})
	if err != nil {
		t.Fatal(err)
	}
	if next.Session == first.Session {
		t.Fatalf("restarted server re-issued %s", next.Session)
	}
}

// FuzzWALReplay opens arbitrary bytes as a session WAL. openWAL must not
// panic, its session mark must cover every session it returns, and
// compaction must be a fixed point: reopening the compacted file gives
// the same live records and the same mark.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	w, _, err := openWAL(dir, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []walRecord{
		{Kind: "compile", Name: "ids", Req: &CompileRequest{Patterns: []string{"needle"}}},
		{Kind: "nextid", NextID: 1},
		{Kind: "checkpoint", ID: "s00000001", Ruleset: "ids", SnapB64: "AAAA"},
		{Kind: "checkpoint", ID: "s00000002", Ruleset: "ids", SnapB64: "BBBB"},
		{Kind: "close", ID: "s00000002"},
		{Kind: "delete", Name: "gone"},
	} {
		if err := w.Append(nil, rec); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	real, err := os.ReadFile(walPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	badCRC := bytes.Clone(real)
	badCRC[len(walMagic)+4] ^= 0xff
	f.Add(real)
	f.Add(real[:len(real)-5]) // torn tail
	f.Add(badCRC)
	f.Add(append([]byte("CAWAL002"), real[len(walMagic):]...)) // bad magic

	byKey := func(recs []walRecord) map[string]walRecord {
		m := make(map[string]walRecord, len(recs))
		for _, rec := range recs {
			k, _ := rec.key()
			m[k] = rec
		}
		return m
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := openWAL(dir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if n, ok := parseSessionID(rec.ID); ok && n > w.next {
				t.Fatalf("session mark %d is below %s", w.next, rec.ID)
			}
		}
		mark := w.next
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, recs2, err := openWAL(dir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if w2.next != mark {
			t.Fatalf("session mark %d after compaction, %d before", w2.next, mark)
		}
		if got, want := byKey(recs2), byKey(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("compacted log replays %+v, the original %+v", got, want)
		}
	})
}
