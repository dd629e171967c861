package server

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"

	ca "cacheautomaton"
	"cacheautomaton/internal/telemetry"
)

// The wire types of the serving API, shared by the HTTP/JSON transport
// and the line-framed TCP transport (which carries the same objects, one
// JSON document per line).

// CompileRequest loads one named rule set.
type CompileRequest struct {
	// Format selects the front-end: "regex" (default), "anml", "snort",
	// or "clamav".
	Format string `json:"format,omitempty"`
	// Patterns is the rule list for the regex format.
	Patterns []string `json:"patterns,omitempty"`
	// Text carries the rule document for the anml/snort/clamav formats.
	Text string `json:"text,omitempty"`
	// Design selects "perf" (CA_P, default) or "space" (CA_S).
	Design string `json:"design,omitempty"`
	// CaseInsensitive, DotExcludesNewline, MaxRepeat and Seed mirror
	// cacheautomaton.Options.
	CaseInsensitive    bool  `json:"case_insensitive,omitempty"`
	DotExcludesNewline bool  `json:"dot_excludes_newline,omitempty"`
	MaxRepeat          int   `json:"max_repeat,omitempty"`
	Seed               int64 `json:"seed,omitempty"`
}

// RulesetInfo describes one compiled rule set.
type RulesetInfo struct {
	Name       string  `json:"name"`
	Format     string  `json:"format"`
	Patterns   int     `json:"patterns"`
	States     int     `json:"states"`
	Partitions int     `json:"partitions"`
	CacheMB    float64 `json:"cache_mb"`
	CompileMS  float64 `json:"compile_ms"`
	// SignatureNames lists ClamAV signature names by pattern index.
	SignatureNames []string `json:"signature_names,omitempty"`
	// Version counts how many times this name has been (re)compiled:
	// 1 on first compile, incremented by every replacing compile or
	// reload. Sessions opened against an older version keep serving it
	// until they close.
	Version int `json:"version"`
	// Cached reports whether this automaton was loaded from the compile
	// cache instead of compiled from source (CompileMS is then the load
	// time).
	Cached bool `json:"cached,omitempty"`
}

// MatchRequest is a one-shot scan of a self-contained input.
type MatchRequest struct {
	Ruleset string `json:"ruleset"`
	// Input carries text payloads; InputB64 carries arbitrary bytes
	// (base64, standard encoding). Exactly one may be set.
	Input    string `json:"input,omitempty"`
	InputB64 string `json:"input_b64,omitempty"`
	// Shards > 1 scans with the sharded parallel engine; the server
	// clamps it to Config.MaxShards.
	Shards int `json:"shards,omitempty"`
}

// MatchStats is the modeled-hardware slice of a run's statistics.
type MatchStats struct {
	Cycles            int64   `json:"cycles"`
	Matches           int64   `json:"matches"`
	AvgActiveStates   float64 `json:"avg_active_states"`
	EnergyPJPerSymbol float64 `json:"energy_pj_per_symbol"`
	ModeledSeconds    float64 `json:"modeled_seconds"`
}

// WireMatch is one report event on the wire: the root package's match
// record, whose json tags are the wire's names.
type WireMatch = ca.Match

// MatchResponse answers a MatchRequest.
type MatchResponse struct {
	Matches []WireMatch `json:"matches"`
	Stats   MatchStats  `json:"stats"`
	// Trace is the request's completed flight-recorder trace, inlined
	// only when the client asked for it (?debug=1 on /match).
	Trace *telemetry.ReqReport `json:"trace,omitempty"`
}

// OpenSessionRequest opens (or, with SnapshotB64, resumes) a streaming
// session.
type OpenSessionRequest struct {
	Ruleset string `json:"ruleset"`
	// SnapshotB64 resumes from a suspended session's snapshot — the
	// migration path: suspend on one server, resume on another.
	SnapshotB64 string `json:"snapshot_b64,omitempty"`
}

// SessionInfo describes one streaming session.
type SessionInfo struct {
	Session string `json:"session"`
	Ruleset string `json:"ruleset"`
	// Pos is the absolute offset of the next symbol the session will scan.
	Pos int64 `json:"pos"`
}

// FeedRequest appends a chunk to a session's stream.
type FeedRequest struct {
	Chunk    string `json:"chunk,omitempty"`
	ChunkB64 string `json:"chunk_b64,omitempty"`
	// Checkpoint asks the server to piggyback the session's post-feed
	// state snapshot onto the response — the cluster router ships it to
	// the session's successor node so a failover resumes from exactly
	// this point without another round trip.
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// FeedResponse returns the chunk's matches (absolute offsets).
type FeedResponse struct {
	Matches []WireMatch `json:"matches"`
	Pos     int64       `json:"pos"`
	// Truncated is set when the feed was canceled mid-chunk by the
	// execution deadline: the matches found up to Pos are delivered, the
	// session stays open, and the client resumes by re-sending the
	// chunk's unconsumed suffix (its bytes from Pos on).
	Truncated bool `json:"truncated,omitempty"`
	// SnapshotB64 is the session's post-feed state snapshot, present
	// only when the request set Checkpoint and the feed completed
	// without truncation.
	SnapshotB64 string `json:"snapshot_b64,omitempty"`
}

// SuspendResponse carries a suspended session's serialized architectural
// state. The session is closed; resume it here or on any server holding
// the same compiled rule set.
type SuspendResponse struct {
	Ruleset     string `json:"ruleset"`
	Pos         int64  `json:"pos"`
	SnapshotB64 string `json:"snapshot_b64"`
}

// Artifact carries one rule set's serialized compiled automaton
// (internal/caformat bytes, base64) plus its originating compile
// request — the cluster's unit of rule-set shipping. GET
// /rulesets/{name}/artifact exports it from any holder and PUT
// /rulesets/{name}/artifact installs it on a receiving node, which
// loads the mapped automaton directly and never recompiles. Req rides
// along so the receiving node's WAL, empty-body reload, and compile
// cache keep working as if it had compiled the rules itself.
type Artifact struct {
	Name        string          `json:"name"`
	Version     int             `json:"version"`
	Req         *CompileRequest `json:"req,omitempty"`
	ArtifactB64 string          `json:"artifact_b64"`
}

// ReadyDetail is /readyz's structured body: overall readiness plus
// per-ruleset compile state, so a cluster health checker can tell a
// warming node (rule sets still compiling or reloading) from a
// draining or dead one instead of reading a bare 503.
type ReadyDetail struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
	// Rulesets maps each rule-set name to its readiness: "compiling"
	// (first build in progress), "reloading" (a replacing build in
	// progress — the previous version still serves), "cached"
	// (published, loaded from the compile cache or installed from a
	// shipped artifact) or "ready" (published, compiled from source).
	Rulesets map[string]string `json:"rulesets,omitempty"`
}

// Health is the health-check payload.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	Rulesets int    `json:"rulesets"`
	Sessions int    `json:"sessions"`
}

// Error is the serving API's one structured error: an HTTP status, the
// message transports render as {"error": ...}, the cause chain (so
// callers can errors.As through the status wrapper — faults.IsInjected
// relies on it) and, for sheds, the Retry-After seconds telling
// well-behaved clients to back off. Nodes and the cluster router both
// return it; no transport ever renders a panic or a bare string.
type Error struct {
	Status     int
	Msg        string
	Cause      error
	RetryAfter int // seconds; > 0 emits a Retry-After response header
}

func (e *Error) Error() string { return e.Msg }

func (e *Error) Unwrap() error { return e.Cause }

// Errorf builds an Error with a status and a formatted message.
func Errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// errc is Errorf with a preserved cause chain.
func errc(status int, cause error, format string, args ...any) error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...), Cause: cause}
}

// StatusOf maps an error to its HTTP status. An error that carries none
// answers 504 when it is a bare deadline expiry and fallback otherwise
// (500 on a node, 502 on the router, whose bare errors are failed hops).
func StatusOf(err error, fallback int) int {
	var e *Error
	switch {
	case errors.As(err, &e):
		return e.Status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return fallback
}

func statusOf(err error) int { return StatusOf(err, http.StatusInternalServerError) }

// payload decodes the one-of text/base64 body of a match or feed request.
func payload(text, b64 string, max int64) ([]byte, error) {
	if text != "" && b64 != "" {
		return nil, Errorf(http.StatusBadRequest, "set input or input_b64, not both")
	}
	var data []byte
	if b64 != "" {
		var err error
		data, err = base64.StdEncoding.DecodeString(b64)
		if err != nil {
			return nil, Errorf(http.StatusBadRequest, "bad base64 payload: %v", err)
		}
	} else {
		data = []byte(text)
	}
	if max > 0 && int64(len(data)) > max {
		return nil, Errorf(http.StatusRequestEntityTooLarge, "payload of %d bytes exceeds limit %d", len(data), max)
	}
	return data, nil
}

// textPayloadErr is payload's validation for a text-only body, split out
// so the batched serving path can validate req.Input without the
// byte-slice materialization it never needs.
func textPayloadErr(text string, max int64) error {
	if max > 0 && int64(len(text)) > max {
		return Errorf(http.StatusRequestEntityTooLarge, "payload of %d bytes exceeds limit %d", len(text), max)
	}
	return nil
}

func wireStats(st *ca.Stats) MatchStats {
	if st == nil {
		return MatchStats{}
	}
	return MatchStats{
		Cycles:            st.Cycles,
		Matches:           st.Matches,
		AvgActiveStates:   st.AvgActiveStates,
		EnergyPJPerSymbol: st.EnergyPJPerSymbol,
		ModeledSeconds:    st.ModeledSeconds,
	}
}
