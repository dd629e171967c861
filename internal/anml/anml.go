// Package anml reads and writes the Automata Network Markup Language — the
// XML interchange format of Micron's Automata Processor that the paper's
// compiler consumes ("The compiler takes as input an NFA described in a
// compact XML-like format (ANML)", §3). Only the STE subset relevant to
// NFA processing is supported: state-transition-elements with symbol sets,
// start attributes, activation edges and report codes (no counters or
// boolean elements).
//
// Read scans the document once, byte by byte, over the exact XML it
// needs: the anml root, its automata-network, each
// state-transition-element's id, symbol-set and start attributes and its
// activate-on-match and report-on-match children. Around them it accepts
// what encoding/xml's decoder accepts — XML declarations, processing
// instructions, comments, character data, single- or double-quoted
// attribute values with the five predefined entities and decimal or hex
// character references, unknown attributes, and unknown elements skipped
// with their whole subtree — and builds the Network that decoder built.
// Four constructs mark the subset's boundary and are rejected on purpose:
//   - <!DOCTYPE and every other <! declaration but a comment;
//   - <![CDATA[ sections;
//   - element names with a namespace prefix (any colon);
//   - a second automata-network, whose states encoding/xml appended to
//     the first's, keeping the last id.
//
// Write encodes through encoding/xml.
package anml

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
)

// Network couples an NFA with its ANML identifiers.
type Network struct {
	// ID is the automata-network id attribute.
	ID string
	// NFA is the decoded automaton.
	NFA *nfa.NFA
	// STEIDs holds the original element id of each state.
	STEIDs []string
}

// errOutsideSubset marks a document rejected for one of the four
// constructs the package comment lists, not for being malformed.
var errOutsideSubset = errors.New("outside the ANML subset")

// Read decodes an ANML document into a Network.
func Read(r io.Reader) (*Network, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("anml: %w", err)
	}
	s := scanner{doc: buf.Bytes()}
	// Size the records once: a count of the tags (some may sit in comments
	// or skipped elements) costs less than growing them.
	s.stes = make([]steRec, 0, bytes.Count(s.doc, []byte("<state-transition-element")))
	s.acts = make([][]byte, 0, bytes.Count(s.doc, []byte("<activate-on-match")))
	if err := s.document(); err != nil {
		return nil, err
	}
	return s.network()
}

// steRec is one state-transition-element as the document spells it. Its
// activation targets are acts[actLo:actHi] of the scanner.
type steRec struct {
	id, symbolSet, start []byte
	report               bool
	code                 []byte
	actLo, actHi         int
}

// attr is one attribute of the start tag just scanned, by local name.
type attr struct{ name, value []byte }

// scanner reads one document. Names and most values are subslices of
// doc; a value with an entity or a carriage return is decoded into its
// own slice.
type scanner struct {
	doc   []byte
	pos   int
	attrs []attr
	netID []byte
	stes  []steRec
	acts  [][]byte
	open  [][]byte // the element names skip has open
}

// document scans up to the root element's end tag; like encoding/xml's
// Decode, it reads nothing after it.
func (s *scanner) document() error {
	kind, err := s.next()
	if err != nil {
		return err
	}
	switch kind {
	case tagEOF:
		return s.errorf("unexpected EOF: no anml element")
	case tagEnd:
		return s.errorf("unexpected end element")
	}
	name, empty, err := s.startTag()
	if err != nil {
		return err
	}
	if string(name) != "anml" {
		return s.errorf("expected element type <anml> but have <%s>", name)
	}
	if empty {
		return nil
	}
	seen := false
	return s.children(name, func(child []byte, empty bool) error {
		if string(child) != "automata-network" {
			return s.skip(child, empty)
		}
		if seen {
			return s.outside("a second automata-network")
		}
		seen = true
		for _, a := range s.attrs {
			if string(a.name) == "id" {
				s.netID = a.value
			}
		}
		if empty {
			return nil
		}
		return s.children(child, func(child []byte, empty bool) error {
			if string(child) != "state-transition-element" {
				return s.skip(child, empty)
			}
			return s.ste(child, empty)
		})
	})
}

// ste records the state-transition-element whose start tag was just
// scanned, with its children. An attribute or child given twice keeps
// the last value, as encoding/xml's field assignment did.
func (s *scanner) ste(name []byte, empty bool) error {
	rec := steRec{actLo: len(s.acts)}
	for _, a := range s.attrs {
		switch string(a.name) {
		case "id":
			rec.id = a.value
		case "symbol-set":
			rec.symbolSet = a.value
		case "start":
			rec.start = a.value
		}
	}
	if !empty {
		err := s.children(name, func(child []byte, empty bool) error {
			switch string(child) {
			case "activate-on-match":
				var target []byte
				for _, a := range s.attrs {
					if string(a.name) == "element" {
						target = a.value
					}
				}
				s.acts = append(s.acts, target)
			case "report-on-match":
				rec.report = true
				for _, a := range s.attrs {
					if string(a.name) == "reportcode" {
						rec.code = a.value
					}
				}
			}
			return s.skip(child, empty)
		})
		if err != nil {
			return err
		}
	}
	rec.actHi = len(s.acts)
	s.stes = append(s.stes, rec)
	return nil
}

// network builds the scanned states in two passes — states, then edges,
// since a target may be declared after its source — and validates the
// NFA.
func (s *scanner) network() (*Network, error) {
	net := &Network{ID: string(s.netID), NFA: nfa.New()}
	if len(s.stes) > 0 { // a network without states keeps nil slices
		net.NFA.States = make([]nfa.State, 0, len(s.stes))
		net.STEIDs = make([]string, 0, len(s.stes))
	}
	idToState := make(map[string]nfa.StateID, len(s.stes))
	// Snort-like networks repeat a few hundred symbol sets over thousands
	// of states: parse each distinct one once.
	classes := make(map[string]bitvec.Class)
	for i := range s.stes {
		ste := &s.stes[i]
		if len(ste.id) == 0 {
			return nil, fmt.Errorf("anml: state-transition-element without id")
		}
		id := string(ste.id)
		if _, dup := idToState[id]; dup {
			return nil, fmt.Errorf("anml: duplicate element id %q", id)
		}
		class, ok := classes[string(ste.symbolSet)]
		if !ok {
			var err error
			if class, err = regexc.ParseClass(string(ste.symbolSet)); err != nil {
				return nil, fmt.Errorf("anml: element %q symbol-set: %w", id, err)
			}
			classes[string(ste.symbolSet)] = class
		}
		st := nfa.State{Class: class}
		switch string(ste.start) {
		case "", "none":
			st.Start = nfa.NoStart
		case "start-of-data":
			st.Start = nfa.StartOfData
		case "all-input":
			st.Start = nfa.AllInput
		default:
			return nil, fmt.Errorf("anml: element %q has unknown start type %q", id, ste.start)
		}
		if ste.report {
			st.Report = true
			if len(ste.code) > 0 {
				code, err := strconv.ParseInt(string(ste.code), 10, 32)
				if err != nil {
					return nil, fmt.Errorf("anml: element %q reportcode %q: %w", id, ste.code, err)
				}
				st.ReportCode = int32(code)
			}
		}
		net.NFA.AddState(st)
		idToState[id] = nfa.StateID(i)
		net.STEIDs = append(net.STEIDs, id)
	}
	// Second pass: edges. Every state's Out is carved from one array, with
	// room for its activations; a state with none keeps a nil Out.
	outs := make([]nfa.StateID, len(s.acts))
	for i := range s.stes {
		ste := &s.stes[i]
		if ste.actHi > ste.actLo {
			net.NFA.States[i].Out = outs[ste.actLo:ste.actLo:ste.actHi]
		}
		for _, target := range s.acts[ste.actLo:ste.actHi] {
			dst, ok := idToState[string(target)]
			if !ok {
				return nil, fmt.Errorf("anml: element %q activates unknown element %q", net.STEIDs[i], target)
			}
			net.NFA.AddEdge(nfa.StateID(i), dst)
		}
	}
	if err := net.NFA.Validate(); err != nil {
		return nil, fmt.Errorf("anml: %w", err)
	}
	return net, nil
}

// What next found at s.pos.
const (
	tagEOF   = iota // the end of the document
	tagStart        // a start tag; s.pos is at its name
	tagEnd          // an end tag; s.pos is at its name
)

// next skips character data, comments and processing instructions up to
// the next start or end tag.
func (s *scanner) next() (int, error) {
	d := s.doc
	for s.pos < len(d) {
		if d[s.pos] != '<' {
			end, _, err := s.text(s.pos, 0)
			if err != nil {
				return 0, err
			}
			s.pos = end
			continue
		}
		if s.pos+1 == len(d) {
			return 0, s.eof()
		}
		switch d[s.pos+1] {
		case '/':
			s.pos += 2
			return tagEnd, nil
		case '?':
			s.pos += 2
			if err := s.procInst(); err != nil {
				return 0, err
			}
		case '!':
			s.pos += 2
			if err := s.comment(); err != nil {
				return 0, err
			}
		default:
			s.pos++
			return tagStart, nil
		}
	}
	return tagEOF, nil
}

// children scans the content of the open element name up to its end tag,
// handing each child's start tag — its attributes in s.attrs — to child,
// which must consume the child's content.
func (s *scanner) children(name []byte, child func(name []byte, empty bool) error) error {
	for {
		kind, err := s.next()
		if err != nil {
			return err
		}
		switch kind {
		case tagEOF:
			return s.eof()
		case tagEnd:
			return s.endTag(name)
		}
		cname, empty, err := s.startTag()
		if err != nil {
			return err
		}
		if err := child(cname, empty); err != nil {
			return err
		}
	}
}

// skip consumes the content of the element name — checked as closely as
// any other, since encoding/xml checked it too — and discards it.
func (s *scanner) skip(name []byte, empty bool) error {
	if empty {
		return nil
	}
	s.open = append(s.open[:0], name)
	for len(s.open) > 0 {
		kind, err := s.next()
		if err != nil {
			return err
		}
		switch kind {
		case tagEOF:
			return s.eof()
		case tagEnd:
			if err := s.endTag(s.open[len(s.open)-1]); err != nil {
				return err
			}
			s.open = s.open[:len(s.open)-1]
		default:
			child, empty, err := s.startTag()
			if err != nil {
				return err
			}
			if !empty {
				s.open = append(s.open, child)
			}
		}
	}
	return nil
}

// startTag scans a start tag from its name to its '>' and leaves its
// attributes in s.attrs. Attributes need no space between them, and a
// repeated one is kept twice, as encoding/xml allowed.
func (s *scanner) startTag() (name []byte, empty bool, err error) {
	d := s.doc
	if name, err = s.name("expected element name after <"); err != nil {
		return nil, false, err
	}
	if bytes.IndexByte(name, ':') >= 0 {
		return nil, false, s.outside("element name with a namespace prefix")
	}
	s.attrs = s.attrs[:0]
	for {
		s.space()
		if s.pos == len(d) {
			return nil, false, s.eof()
		}
		switch d[s.pos] {
		case '>':
			s.pos++
			return name, false, nil
		case '/':
			if s.pos+1 == len(d) {
				return nil, false, s.eof()
			}
			if d[s.pos+1] != '>' {
				return nil, false, s.errorf("expected /> in element")
			}
			s.pos += 2
			return name, true, nil
		}
		an, err := s.nsname("expected attribute name in element")
		if err != nil {
			return nil, false, err
		}
		s.space()
		if s.pos == len(d) {
			return nil, false, s.eof()
		}
		if d[s.pos] != '=' {
			return nil, false, s.errorf("attribute name without = in element")
		}
		s.pos++
		s.space()
		if s.pos == len(d) {
			return nil, false, s.eof()
		}
		q := d[s.pos]
		if q != '"' && q != '\'' {
			return nil, false, s.errorf("unquoted or missing attribute value in element")
		}
		end, decode, err := s.text(s.pos+1, q)
		if err != nil {
			return nil, false, err
		}
		v := d[s.pos+1 : end]
		if decode {
			v = decodeText(v)
		}
		s.pos = end + 1
		s.attrs = append(s.attrs, attr{an, v})
	}
}

// endTag scans an end tag from its name and checks it closes open, prefix
// and all.
func (s *scanner) endTag(open []byte) error {
	var name []byte
	if end := s.pos + len(open); end < len(s.doc) && bytes.Equal(s.doc[s.pos:end], open) && !nameByte[s.doc[end]] {
		name, s.pos = open, end // the usual case: open's name, checked when it opened
	} else {
		var err error
		if name, err = s.name("expected element name after </"); err != nil {
			return err
		}
	}
	s.space()
	if s.pos == len(s.doc) {
		return s.eof()
	}
	if s.doc[s.pos] != '>' {
		return s.errorf("invalid characters between </%s and >", name)
	}
	s.pos++
	if !bytes.Equal(name, open) {
		return s.errorf("element <%s> closed by </%s>", open, name)
	}
	return nil
}

// procInst skips a processing instruction after its "<?". An XML
// declaration must declare version 1.0, if any, and UTF-8, if any.
func (s *scanner) procInst() error {
	target, err := s.name("expected target name after <?")
	if err != nil {
		return err
	}
	s.space()
	n := bytes.Index(s.doc[s.pos:], []byte("?>"))
	if n < 0 {
		return s.eof()
	}
	body := s.doc[s.pos : s.pos+n]
	if string(target) == "xml" {
		if v := declParam("version", string(body)); v != "" && v != "1.0" {
			return s.errorf("unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := declParam("encoding", string(body)); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return s.errorf("encoding %q declared; only UTF-8 is read", enc)
		}
	}
	s.pos += n + 2
	return nil
}

// declParam returns the quoted value of param in an XML declaration's
// body the way encoding/xml finds it: the first "param=" followed by a
// quote, up to the next such quote; "" when there is none.
func declParam(param, body string) string {
	key := param + "="
	for rest := body; ; rest = rest[1:] {
		k := strings.Index(rest, key)
		if k < 0 || k+len(key) >= len(rest) {
			return ""
		}
		rest = rest[k+len(key):]
		if q := rest[0]; q == '"' || q == '\'' {
			if j := strings.IndexByte(rest[1:], q); j >= 0 {
				return rest[1 : 1+j]
			}
			return ""
		}
	}
}

// comment skips a comment after its "<!". Every other "<!" — a DOCTYPE
// or any declaration, a CDATA section — is outside the subset.
func (s *scanner) comment() error {
	d := s.doc
	switch {
	case bytes.HasPrefix(d[s.pos:], []byte("--")):
		body := s.pos + 2
		n := bytes.Index(d[body:], []byte("--"))
		if n < 0 || body+n+2 == len(d) {
			return s.eof()
		}
		s.pos = body + n + 2
		if d[s.pos] != '>' {
			return s.errorf(`invalid sequence "--" not allowed in comments`)
		}
		s.pos++
		return nil
	case bytes.HasPrefix(d[s.pos:], []byte("[CDATA[")):
		return s.outside("CDATA section")
	case s.pos < len(d) && d[s.pos] != '-' && d[s.pos] != '[':
		return s.outside("<! declaration")
	}
	return s.errorf("invalid <! sequence")
}

// name scans an XML name at s.pos.
func (s *scanner) name(missing string) ([]byte, error) {
	d := s.doc
	i, ascii := s.pos, true
	for i < len(d) && nameByte[d[i]] {
		ascii = ascii && d[i] < utf8.RuneSelf
		i++
	}
	if i == len(d) {
		return nil, s.eof()
	}
	if i == s.pos {
		return nil, s.errorf("%s", missing)
	}
	name := d[s.pos:i]
	// An ASCII name may not start with a digit, '.' or '-'. encoding/xml
	// keeps its tables for the rest of Unicode unexported, but its encoder
	// checks a processing instruction's target against them.
	if ascii && (name[0] >= '0' && name[0] <= '9' || name[0] == '.' || name[0] == '-') ||
		!ascii && xml.NewEncoder(io.Discard).EncodeToken(xml.ProcInst{Target: string(name)}) != nil {
		return nil, s.errorf("invalid XML name: %s", name)
	}
	s.pos = i
	return name, nil
}

// nsname scans a name that may carry one namespace prefix and returns its
// local part: encoding/xml matched attributes on that alone.
func (s *scanner) nsname(missing string) ([]byte, error) {
	name, err := s.name(missing)
	if err != nil {
		return nil, err
	}
	switch bytes.Count(name, []byte(":")) {
	case 0:
		return name, nil
	case 1:
		if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
			return name[i+1:], nil
		}
		return name, nil
	}
	return nil, s.errorf("%s", missing)
}

// nameByte marks the bytes a name runs over, as encoding/xml reads one:
// ASCII letters, digits and "_:.-", and every byte of a multi-byte rune,
// whose validity name checks after.
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
	return t
}()

// space skips XML white space.
func (s *scanner) space() {
	for s.pos < len(s.doc) {
		switch s.doc[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// text checks the character data from doc[i] up to '<' or the end of the
// document (quote 0), or an attribute value up to its closing quote. It
// returns where the text ends and whether it needs decodeText: it holds
// an entity or a carriage return.
func (s *scanner) text(i int, quote byte) (end int, decode bool, err error) {
	d := s.doc
	start := i
	for i < len(d) {
		c := d[i]
		if plainText[c] {
			i++
			continue
		}
		switch {
		case c == '"' || c == '\'':
			if c == quote {
				return i, decode, nil
			}
			i++
		case c == '<':
			if quote == 0 {
				return i, decode, nil
			}
			s.pos = i
			return 0, false, s.errorf("unescaped < inside quoted string")
		case c == '>':
			if quote == 0 && i-start >= 2 && d[i-1] == ']' && d[i-2] == ']' {
				s.pos = i
				return 0, false, s.errorf("unescaped ]]> not in CDATA section")
			}
			i++
		case c == '&':
			_, n, err := s.entity(i)
			if err != nil {
				return 0, false, err
			}
			i, decode = n, true
		case c == '\r':
			i, decode = i+1, true
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				s.pos = i
				return 0, false, s.errorf("invalid UTF-8")
			}
			if !inCharRange(r) {
				s.pos = i
				return 0, false, s.errorf("illegal character code %U", r)
			}
			i += size
		default: // a control character
			s.pos = i
			return 0, false, s.errorf("illegal character code %U", rune(c))
		}
	}
	if quote != 0 {
		return 0, false, s.eof()
	}
	return i, decode, nil
}

// plainText marks the bytes text passes over without a second look.
var plainText = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `<>&"'` {
		t[c] = false
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// entity decodes the entity or character reference at doc[i] == '&' and
// returns its rune and the index past its ';'.
func (s *scanner) entity(i int) (rune, int, error) {
	d := s.doc
	j := i + 1
	if j < len(d) && d[j] == '#' {
		j++
		base := rune(10)
		if j < len(d) && d[j] == 'x' {
			base = 16
			j++
		}
		var n rune
		k := j
		for ; k < len(d); k++ {
			v := digitVal(d[k], base)
			if v < 0 {
				break
			}
			if n <= utf8.MaxRune {
				n = n*base + v
			}
		}
		if k == len(d) {
			return 0, 0, s.eof()
		}
		if d[k] != ';' || k == j || n > utf8.MaxRune {
			s.pos = i
			return 0, 0, s.errorf("invalid character entity %s", d[i:k+1])
		}
		if n >= 0xD800 && n <= 0xDFFF {
			n = utf8.RuneError // a surrogate encodes as U+FFFD
		}
		if !inCharRange(n) {
			s.pos = i
			return 0, 0, s.errorf("illegal character code %U", n)
		}
		return n, k + 1, nil
	}
	k := j
	for k < len(d) && nameByte[d[k]] {
		k++
	}
	if k == len(d) {
		return 0, 0, s.eof()
	}
	var r rune
	switch string(d[j:k]) {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	}
	if r == 0 || d[k] != ';' {
		s.pos = i
		return 0, 0, s.errorf("invalid character entity %s", d[i:k+1])
	}
	return r, k + 1, nil
}

// digitVal is c's value as a digit in base 10 or 16, or -1.
func digitVal(c byte, base rune) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case base == 16 && 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case base == 16 && 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// inCharRange reports whether r is an XML 1.0 Char.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// decodeText expands the entities of text, which checked it, and turns
// "\r\n" and a lone '\r' into '\n'.
func decodeText(v []byte) []byte {
	s := scanner{doc: v}
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); {
		switch c := v[i]; {
		case c == '&':
			r, n, _ := s.entity(i) // text has checked every reference
			out = utf8.AppendRune(out, r)
			i = n
		case c == '\r':
			out = append(out, '\n')
			if i++; i < len(v) && v[i] == '\n' {
				i++
			}
		default:
			out = append(out, c)
			i++
		}
	}
	return out
}

// errorf reports a malformed document at the line of s.pos.
func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("anml: XML syntax error on line %d: %s", s.line(), fmt.Sprintf(format, args...))
}

func (s *scanner) eof() error { return s.errorf("unexpected EOF") }

// outside reports one of the subset's four rejected constructs.
func (s *scanner) outside(what string) error {
	return fmt.Errorf("anml: line %d: %s: %w", s.line(), what, errOutsideSubset)
}

func (s *scanner) line() int { return 1 + bytes.Count(s.doc[:s.pos], []byte("\n")) }

// Write encodes the NFA as an ANML document. State i is given the element
// id "__i" unless steIDs supplies names (len must equal the state count,
// each non-empty and distinct). An NFA that Validate rejects is not
// written: Read would reject the document.
func Write(w io.Writer, n *nfa.NFA, networkID string, steIDs []string) error {
	if err := n.Validate(); err != nil {
		return fmt.Errorf("anml: %w", err)
	}
	if steIDs != nil {
		if len(steIDs) != n.NumStates() {
			return fmt.Errorf("anml: %d ste ids for %d states", len(steIDs), n.NumStates())
		}
		seen := make(map[string]bool, len(steIDs))
		for i, id := range steIDs {
			if id == "" {
				return fmt.Errorf("anml: state %d has an empty ste id", i)
			}
			if seen[id] {
				return fmt.Errorf("anml: duplicate ste id %q", id)
			}
			seen[id] = true
		}
	}
	name := func(i int) string {
		if steIDs != nil {
			return steIDs[i]
		}
		return "__" + strconv.Itoa(i)
	}
	doc := xmlDoc{Version: "1.0", Network: xmlNetwork{ID: networkID}}
	for i := range n.States {
		s := &n.States[i]
		ste := xmlSTE{ID: name(i), SymbolSet: s.Class.String()}
		switch s.Start {
		case nfa.StartOfData:
			ste.Start = "start-of-data"
		case nfa.AllInput:
			ste.Start = "all-input"
		}
		outs := append([]nfa.StateID(nil), s.Out...)
		sort.Slice(outs, func(a, b int) bool { return outs[a] < outs[b] })
		for _, v := range outs {
			ste.Activate = append(ste.Activate, xmlActivate{Element: name(int(v))})
		}
		if s.Report {
			ste.Report = &xmlReport{Code: strconv.FormatInt(int64(s.ReportCode), 10)}
		}
		doc.Network.STEs = append(doc.Network.STEs, ste)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("anml: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// The encoding/xml shape Write encodes.
type xmlDoc struct {
	XMLName xml.Name   `xml:"anml"`
	Version string     `xml:"version,attr,omitempty"`
	Network xmlNetwork `xml:"automata-network"`
}

type xmlNetwork struct {
	ID   string   `xml:"id,attr,omitempty"`
	STEs []xmlSTE `xml:"state-transition-element"`
}

type xmlSTE struct {
	ID        string        `xml:"id,attr"`
	SymbolSet string        `xml:"symbol-set,attr"`
	Start     string        `xml:"start,attr,omitempty"`
	Activate  []xmlActivate `xml:"activate-on-match"`
	Report    *xmlReport    `xml:"report-on-match"`
}

type xmlActivate struct {
	Element string `xml:"element,attr"`
}

type xmlReport struct {
	Code string `xml:"reportcode,attr,omitempty"`
}
