package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	ca "cacheautomaton"
	"cacheautomaton/internal/telemetry"
)

// TestSessionLifecycleModel drives seeded random sequences of open, feed,
// suspend plus resume-by-snapshot, close, crash-restart and
// drain-restart through a WAL-backed Server, and holds it to a reference
// model: a session is the bytes fed to it so far. Each feed must report
// exactly the matches one sequential RunContext over those bytes finds
// in the chunk just fed; after any restart the open sessions must be the
// model's, at the model's positions; and no id is ever handed out twice.
func TestSessionLifecycleModel(t *testing.T) {
	patterns := []string{"needle", "ab+c", "e[dl]e"}
	ref, err := ca.CompileRegex(patterns, ca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := &lifecycleModel{t: t, seed: seed, ref: ref, dir: t.TempDir(),
				open: map[string][]byte{}, issued: map[string]bool{}}
			m.start()
			if _, err := m.s.Compile(context.Background(), "m", CompileRequest{Patterns: patterns}); err != nil {
				t.Fatal(err)
			}
			m.run(rand.New(rand.NewSource(seed)), 60)
			m.drainRestart()
			_ = m.s.Shutdown(context.Background())
		})
	}
}

// lifecycleModel is the reference: open maps each open session's id to
// the bytes fed to it, issued every id the server ever handed out.
type lifecycleModel struct {
	t      *testing.T
	seed   int64
	ref    *ca.Automaton
	dir    string
	s      *Server
	open   map[string][]byte
	issued map[string]bool
}

func (m *lifecycleModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("seed %d: "+format, append([]any{m.seed}, args...)...)
}

// start brings up a server on the model's WAL dir and checks it resumed
// exactly the model's sessions at the model's positions.
func (m *lifecycleModel) start() {
	m.t.Helper()
	m.s = New(Config{Registry: telemetry.NewRegistry(), SessionIdle: -1})
	if _, err := m.s.AttachWAL(m.dir); err != nil {
		m.fatalf("attach: %v", err)
	}
	got := map[string]int64{}
	for _, info := range m.s.Sessions() {
		got[info.Session] = info.Pos
	}
	want := map[string]int64{}
	for id, fed := range m.open {
		want[id] = int64(len(fed))
	}
	if !reflect.DeepEqual(got, want) {
		m.fatalf("after restart the server holds %v, the model %v", got, want)
	}
}

// crashRestart drops the server without Shutdown. Its log fd is closed
// without a write, as a killed process's would be.
func (m *lifecycleModel) crashRestart() {
	m.t.Helper()
	if w := m.s.wal.Load(); w != nil {
		w.Close()
	}
	m.start()
}

func (m *lifecycleModel) drainRestart() {
	m.t.Helper()
	if err := m.s.Shutdown(context.Background()); err != nil {
		m.fatalf("shutdown: %v", err)
	}
	m.start()
}

// issue records a freshly handed-out id and fails on a reused one.
func (m *lifecycleModel) issue(id string, fed []byte) {
	m.t.Helper()
	if m.issued[id] {
		m.fatalf("id %s handed out twice", id)
	}
	m.issued[id] = true
	m.open[id] = fed
}

// pick returns a random open session id, or "" when none is open.
func (m *lifecycleModel) pick(r *rand.Rand) string {
	ids := make([]string, 0, len(m.open))
	for id := range m.open {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return ""
	}
	sort.Strings(ids)
	return ids[r.Intn(len(ids))]
}

func (m *lifecycleModel) run(r *rand.Rand, ops int) {
	m.t.Helper()
	ctx := context.Background()
	const alphabet = "abcdelnx "
	for i := 0; i < ops; i++ {
		op := r.Intn(10)
		id := m.pick(r)
		if id == "" {
			op = 0
		}
		switch op {
		case 0, 1: // open
			info, err := m.s.OpenSession(ctx, OpenSessionRequest{Ruleset: "m"})
			if err != nil {
				m.fatalf("op %d open: %v", i, err)
			}
			m.issue(info.Session, nil)
		case 2, 3, 4, 5: // feed
			chunk := make([]byte, 1+r.Intn(12))
			for j := range chunk {
				chunk[j] = alphabet[r.Intn(len(alphabet))]
			}
			fr, err := m.s.Feed(ctx, id, FeedRequest{Chunk: string(chunk)})
			if err != nil {
				m.fatalf("op %d feed %s: %v", i, id, err)
			}
			before := int64(len(m.open[id]))
			m.open[id] = append(m.open[id], chunk...)
			all, _, err := m.ref.RunContext(ctx, m.open[id])
			if err != nil {
				m.fatalf("op %d reference run: %v", i, err)
			}
			want := []WireMatch{}
			for _, mt := range all {
				if mt.Offset >= before {
					want = append(want, WireMatch{Offset: mt.Offset, Pattern: mt.Pattern})
				}
			}
			got := append([]WireMatch{}, fr.Matches...)
			if !reflect.DeepEqual(got, want) || fr.Pos != int64(len(m.open[id])) {
				m.fatalf("op %d feed %s %q after %q: got %v at pos %d, want %v at pos %d",
					i, id, chunk, m.open[id][:before], got, fr.Pos, want, len(m.open[id]))
			}
		case 6: // suspend, then resume the snapshot as a new session
			sr, err := m.s.Suspend(ctx, id)
			if err != nil {
				m.fatalf("op %d suspend %s: %v", i, id, err)
			}
			if sr.Pos != int64(len(m.open[id])) {
				m.fatalf("op %d suspend %s at pos %d, want %d", i, id, sr.Pos, len(m.open[id]))
			}
			fed := m.open[id]
			delete(m.open, id)
			info, err := m.s.OpenSession(ctx, OpenSessionRequest{Ruleset: "m", SnapshotB64: sr.SnapshotB64})
			if err != nil {
				m.fatalf("op %d resume %s: %v", i, id, err)
			}
			m.issue(info.Session, fed)
		case 7: // close
			if err := m.s.CloseSession(ctx, id); err != nil {
				m.fatalf("op %d close %s: %v", i, id, err)
			}
			delete(m.open, id)
		case 8:
			m.crashRestart()
		case 9:
			m.drainRestart()
		}
	}
}
