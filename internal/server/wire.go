package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire codec: every transport and the router's node client encode
// and decode through AppendJSON and DecodeJSON. The four hot wire types
// (MatchRequest, FeedRequest, MatchResponse, FeedResponse) take a
// reflection-free path; everything else, and any input outside the
// canonical subset DecodeJSON accepts, goes to encoding/json,
// which stays the reference: the fast path produces exactly its bytes,
// its errors and its decoded values (DESIGN.md "The op table", "Wire
// codec").

// maxPooledBuffer caps what returns to the pool: a buffer that grew past
// it (a sharded match, an artifact) is dropped, so one large request
// pins nothing.
const maxPooledBuffer = 64 << 10

var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty buffer from the pool, for one request or
// reply body; PutBuffer gives it back once nothing references its bytes.
func GetBuffer() *bytes.Buffer {
	b := bufferPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuffer returns b to the pool unless it grew past maxPooledBuffer.
// Decoded values never alias a body (DecodeJSON copies every string), so
// a body may be put back as soon as it has been decoded.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// ReadBody reads r to EOF into b, replacing its contents. sizeHint is
// the body's declared length (a Content-Length, -1 when unknown): b is
// presized for it, up to maxPooledBuffer, and past that grows only as
// bytes arrive, so a header alone cannot make the reader hold more than
// a pooled buffer of what the client never sends.
func ReadBody(b *bytes.Buffer, r io.Reader, sizeHint int64) error {
	b.Reset()
	b.Grow(int(min(max(sizeHint, 0), maxPooledBuffer-bytes.MinRead)) + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return err
}

// AppendJSON appends the encoding of v to dst: exactly the bytes
// json.Marshal(v) produces, and its error. *MatchRequest, *FeedRequest,
// *MatchResponse (without a Trace) and *FeedResponse are written field
// by field; any other value is json.Marshal, appended.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case *MatchRequest:
		if v != nil {
			return appendMatchRequest(dst, v), nil
		}
	case *FeedRequest:
		if v != nil {
			return appendFeedRequest(dst, v), nil
		}
	case *MatchResponse:
		if v != nil && v.Trace == nil && finite(v.Stats.AvgActiveStates, v.Stats.EnergyPJPerSymbol, v.Stats.ModeledSeconds) {
			return appendMatchResponse(dst, v), nil
		}
	case *FeedResponse:
		if v != nil {
			return appendFeedResponse(dst, v), nil
		}
	}
	data, err := json.Marshal(v)
	switch {
	case err != nil:
		return dst, err
	case len(dst) == 0 && cap(dst) < len(data):
		return data, nil // appending would only copy it
	}
	return append(dst, data...), nil
}

func appendMatchRequest(dst []byte, v *MatchRequest) []byte {
	dst = slices.Grow(dst, len(v.Ruleset)+len(v.Input)+len(v.InputB64)+64)
	dst = appendString(append(dst, `{"ruleset":`...), v.Ruleset)
	if v.Input != "" {
		dst = appendString(append(dst, `,"input":`...), v.Input)
	}
	if v.InputB64 != "" {
		dst = appendString(append(dst, `,"input_b64":`...), v.InputB64)
	}
	if v.Shards != 0 {
		dst = strconv.AppendInt(append(dst, `,"shards":`...), int64(v.Shards), 10)
	}
	return append(dst, '}')
}

// appendFeedRequest writes every field with a leading comma and turns
// the first one into the opening brace: all three are omitempty.
func appendFeedRequest(dst []byte, v *FeedRequest) []byte {
	dst = slices.Grow(dst, len(v.Chunk)+len(v.ChunkB64)+64)
	open := len(dst)
	if v.Chunk != "" {
		dst = appendString(append(dst, `,"chunk":`...), v.Chunk)
	}
	if v.ChunkB64 != "" {
		dst = appendString(append(dst, `,"chunk_b64":`...), v.ChunkB64)
	}
	if v.Checkpoint {
		dst = append(dst, `,"checkpoint":true`...)
	}
	if len(dst) == open {
		return append(dst, "{}"...)
	}
	dst[open] = '{'
	return append(dst, '}')
}

func appendMatchResponse(dst []byte, v *MatchResponse) []byte {
	dst = slices.Grow(dst, 40*len(v.Matches)+160)
	dst = appendMatches(append(dst, `{"matches":`...), v.Matches)
	dst = strconv.AppendInt(append(dst, `,"stats":{"cycles":`...), v.Stats.Cycles, 10)
	dst = strconv.AppendInt(append(dst, `,"matches":`...), v.Stats.Matches, 10)
	dst = appendFloat(append(dst, `,"avg_active_states":`...), v.Stats.AvgActiveStates)
	dst = appendFloat(append(dst, `,"energy_pj_per_symbol":`...), v.Stats.EnergyPJPerSymbol)
	dst = appendFloat(append(dst, `,"modeled_seconds":`...), v.Stats.ModeledSeconds)
	return append(dst, "}}"...)
}

func appendFeedResponse(dst []byte, v *FeedResponse) []byte {
	dst = slices.Grow(dst, 40*len(v.Matches)+len(v.SnapshotB64)+64)
	dst = appendMatches(append(dst, `{"matches":`...), v.Matches)
	dst = strconv.AppendInt(append(dst, `,"pos":`...), v.Pos, 10)
	if v.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	if v.SnapshotB64 != "" {
		dst = appendString(append(dst, `,"snapshot_b64":`...), v.SnapshotB64)
	}
	return append(dst, '}')
}

func appendMatches(dst []byte, ms []WireMatch) []byte {
	if ms == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, m := range ms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"offset":`...), m.Offset, 10)
		dst = strconv.AppendInt(append(dst, `,"pattern":`...), int64(m.Pattern), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// finite reports whether every float encodes; NaN and ±Inf are
// json.Marshal's error, so a value holding one takes the reference path.
func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// appendFloat is encoding/json's float64 rule: ES6 number formatting,
// 'e' below 1e-6 and from 1e21, with a one-digit exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// htmlSafe[b] reports whether ASCII byte b is written as itself inside a
// string: json.Marshal escapes control bytes, the quote, the backslash
// and, for HTML safety, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString quotes s exactly as json.Marshal does.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// DecodeJSON decodes data into v with json.Unmarshal's result. For the
// hot wire types it makes one pass over data, and stores into v only
// when the whole document is in the canonical subset, which is exactly
// what AppendJSON writes: one object with nothing but whitespace after
// it; every key exactly the json name of a field; strings with no
// control byte and valid UTF-8, escapes decoded, but no \u escape that
// names a surrogate; integers with no fraction, exponent or overflow;
// true and false; floats in the JSON grammar. Anything else (a key in
// another case, an unknown key, a surrogate pair, a TCP line with its
// envelope) runs json.Unmarshal on the untouched v, so acceptance, error
// text and the decoded value are encoding/json's by construction.
// Decoded strings are copies: nothing aliases data.
func DecodeJSON(data []byte, v any) error {
	if decodeCanonical(data, v) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// decodeCanonical is DecodeJSON's one pass: it reports whether v is a
// type the codec decodes and data was in the subset, and stores into v
// only then.
func decodeCanonical(data []byte, v any) bool {
	r := &wireReader{data: data}
	switch v := v.(type) {
	case *MatchRequest:
		return decodeObject(r, v, (*wireReader).matchRequest)
	case *FeedRequest:
		return decodeObject(r, v, (*wireReader).feedRequest)
	case *MatchResponse:
		return decodeObject(r, v, (*wireReader).matchResponse)
	case *FeedResponse:
		return decodeObject(r, v, (*wireReader).feedResponse)
	}
	return false
}

// decodeObject decodes the document into a copy of *v and stores the
// copy only when every byte was in the subset.
func decodeObject[T any](r *wireReader, v *T, member func(*wireReader, *T, []byte) bool) bool {
	if v == nil {
		return false
	}
	t := *v
	if !r.object(func(key []byte) bool { return member(r, &t, key) }) {
		return false
	}
	r.space()
	if r.i != len(r.data) {
		return false
	}
	*v = t
	return true
}

// Each member decoder below consumes the value of a key that is exactly
// the json name of one of its fields; any other key leaves the fast path.

func (r *wireReader) matchRequest(t *MatchRequest, key []byte) bool {
	switch string(key) {
	case "ruleset":
		return r.str(&t.Ruleset)
	case "input":
		return r.str(&t.Input)
	case "input_b64":
		return r.str(&t.InputB64)
	case "shards":
		return readInt(r, &t.Shards)
	}
	return false
}

func (r *wireReader) feedRequest(t *FeedRequest, key []byte) bool {
	switch string(key) {
	case "chunk":
		return r.str(&t.Chunk)
	case "chunk_b64":
		return r.str(&t.ChunkB64)
	case "checkpoint":
		return r.boolean(&t.Checkpoint)
	}
	return false
}

// matchResponse leaves "trace" to encoding/json: it is a field, and the
// fast path decodes no ReqReport.
func (r *wireReader) matchResponse(t *MatchResponse, key []byte) bool {
	switch string(key) {
	case "matches":
		return r.matches(&t.Matches)
	case "stats":
		return r.object(func(key []byte) bool { return r.matchStats(&t.Stats, key) })
	}
	return false
}

func (r *wireReader) matchStats(t *MatchStats, key []byte) bool {
	switch string(key) {
	case "cycles":
		return readInt(r, &t.Cycles)
	case "matches":
		return readInt(r, &t.Matches)
	case "avg_active_states":
		return r.float(&t.AvgActiveStates)
	case "energy_pj_per_symbol":
		return r.float(&t.EnergyPJPerSymbol)
	case "modeled_seconds":
		return r.float(&t.ModeledSeconds)
	}
	return false
}

func (r *wireReader) feedResponse(t *FeedResponse, key []byte) bool {
	switch string(key) {
	case "matches":
		return r.matches(&t.Matches)
	case "pos":
		return readInt(r, &t.Pos)
	case "truncated":
		return r.boolean(&t.Truncated)
	case "snapshot_b64":
		return r.str(&t.SnapshotB64)
	}
	return false
}

func (r *wireReader) wireMatch(t *WireMatch, key []byte) bool {
	switch string(key) {
	case "offset":
		return readInt(r, &t.Offset)
	case "pattern":
		return readInt(r, &t.Pattern)
	}
	return false
}

// wireReader is DecodeJSON's cursor over one document.
type wireReader struct {
	data []byte
	i    int
}

func (r *wireReader) space() {
	for ; r.i < len(r.data); r.i++ {
		switch r.data[r.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (r *wireReader) eat(c byte) bool {
	r.space()
	if r.i < len(r.data) && r.data[r.i] == c {
		r.i++
		return true
	}
	return false
}

// object walks one object, handing each key to member, which consumes
// the value; false from member, or any byte outside the subset,
// abandons the fast path.
func (r *wireReader) object(member func(key []byte) bool) bool {
	if !r.eat('{') {
		return false
	}
	if r.eat('}') {
		return true
	}
	for {
		key, ok := r.rawString()
		if !ok || !r.eat(':') || !member(key) {
			return false
		}
		if !r.eat(',') {
			return r.eat('}')
		}
	}
}

// matches decodes a match list as encoding/json decodes into *dst:
// element i starts from what the slice holds at i within its capacity,
// [] is a fresh empty slice, null is nil, and the old backing array is
// only read.
func (r *wireReader) matches(dst *[]WireMatch) bool {
	if r.literal("null") {
		*dst = nil
		return true
	}
	if !r.eat('[') {
		return false
	}
	if r.eat(']') {
		*dst = []WireMatch{}
		return true
	}
	old := (*dst)[:cap(*dst)]
	var out []WireMatch
	for {
		var m WireMatch
		if len(out) < len(old) {
			m = old[len(out)]
		}
		if !r.object(func(key []byte) bool { return r.wireMatch(&m, key) }) {
			return false
		}
		out = append(out, m)
		if !r.eat(',') {
			break
		}
	}
	if !r.eat(']') {
		return false
	}
	*dst = out
	return true
}

// rawString consumes a string and returns its value: the document's own
// bytes when it holds no escape, else a fresh copy with every escape
// decoded as encoding/json decodes it. A control byte, invalid UTF-8 or
// a malformed escape leaves the fast path.
func (r *wireReader) rawString() ([]byte, bool) {
	if !r.eat('"') {
		return nil, false
	}
	start := r.i
	for ; r.i < len(r.data); r.i++ {
		switch c := r.data[r.i]; {
		case c == '"':
			s := r.data[start:r.i]
			r.i++
			return s, utf8.Valid(s)
		case c == '\\':
			return r.unescape(start)
		case c < ' ':
			return nil, false
		}
	}
	return nil, false
}

// unescape finishes a string that opened at start and whose first
// escape is at r.i, copying each unescaped run and decoding each escape.
// No escape decodes longer than it is written, so the output is sized
// once, to the string's raw length.
func (r *wireReader) unescape(start int) ([]byte, bool) {
	end := r.i
	for end < len(r.data) && r.data[end] != '"' {
		if r.data[end] == '\\' {
			end++
		}
		end++
	}
	out := make([]byte, 0, min(end, len(r.data))-start)
	for run := start; r.i < len(r.data); {
		switch c := r.data[r.i]; {
		case c == '"' || c == '\\':
			if !utf8.Valid(r.data[run:r.i]) {
				return nil, false
			}
			out = append(out, r.data[run:r.i]...)
			if c == '"' {
				r.i++
				return out, true
			}
			if out = r.escape(out); out == nil {
				return nil, false
			}
			run = r.i
		case c < ' ':
			return nil, false
		default:
			r.i++
		}
	}
	return nil, false
}

// escape decodes the escape at r.i onto out, or returns nil for one
// outside the JSON grammar or a \u escape that names a surrogate:
// AppendJSON writes none, so pairing them is encoding/json's.
func (r *wireReader) escape(out []byte) []byte {
	d := r.data[r.i:]
	if len(d) < 2 {
		return nil
	}
	switch c := d[1]; c {
	case '"', '\\', '/':
		out = append(out, c)
	case 'b':
		out = append(out, '\b')
	case 'f':
		out = append(out, '\f')
	case 'n':
		out = append(out, '\n')
	case 'r':
		out = append(out, '\r')
	case 't':
		out = append(out, '\t')
	case 'u':
		rr := u4(d)
		if rr < 0 || utf16.IsSurrogate(rr) {
			return nil
		}
		r.i += 6
		return utf8.AppendRune(out, rr)
	default:
		return nil
	}
	r.i += 2
	return out
}

// u4 reads the \uXXXX escape d starts with, or returns -1.
func u4(d []byte) rune {
	if len(d) < 6 || d[0] != '\\' || d[1] != 'u' {
		return -1
	}
	var rr rune
	for _, c := range d[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rr = rr<<4 | rune(c)
	}
	return rr
}

func (r *wireReader) str(dst *string) bool {
	s, ok := r.rawString()
	if ok {
		*dst = string(s)
	}
	return ok
}

func (r *wireReader) literal(lit string) bool {
	r.space()
	if len(r.data)-r.i < len(lit) || string(r.data[r.i:r.i+len(lit)]) != lit {
		return false
	}
	r.i += len(lit)
	return true
}

func (r *wireReader) boolean(dst *bool) bool {
	switch {
	case r.literal("true"):
		*dst = true
	case r.literal("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// number consumes one number in the JSON grammar and reports whether it
// is an integer (no fraction, no exponent).
func (r *wireReader) number() (tok []byte, integer, ok bool) {
	r.space()
	d, i := r.data, r.i
	digits := func(i int) int {
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	tok, r.i = d[r.i:i], i
	return tok, integer, true
}

// readInt decodes an integer that fits T; anything else (a fraction, an
// exponent, an overflow) is encoding/json's to reject.
func readInt[T int | int64](r *wireReader, dst *T) bool {
	tok, integer, ok := r.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(T(n)) != n {
		return false
	}
	*dst = T(n)
	return true
}

func (r *wireReader) float(dst *float64) bool {
	tok, _, ok := r.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}
