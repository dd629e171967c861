package anml

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/iotest"

	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
	"cacheautomaton/internal/workload"
)

const sampleDoc = `<?xml version="1.0" encoding="UTF-8"?>
<anml version="1.0">
  <automata-network id="sample">
    <state-transition-element id="s0" symbol-set="[ab]" start="all-input">
      <activate-on-match element="s1"/>
    </state-transition-element>
    <state-transition-element id="s1" symbol-set="c">
      <activate-on-match element="s2"/>
      <activate-on-match element="s1"/>
    </state-transition-element>
    <state-transition-element id="s2" symbol-set="[x-z]">
      <report-on-match reportcode="42"/>
    </state-transition-element>
  </automata-network>
</anml>
`

func TestReadSample(t *testing.T) {
	net, err := Read(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if net.ID != "sample" {
		t.Errorf("network id = %q, want sample", net.ID)
	}
	n := net.NFA
	if n.NumStates() != 3 {
		t.Fatalf("states = %d, want 3", n.NumStates())
	}
	if n.States[0].Start != nfa.AllInput {
		t.Error("s0 should be all-input")
	}
	if !n.States[0].Class.Has('a') || !n.States[0].Class.Has('b') || n.States[0].Class.Count() != 2 {
		t.Errorf("s0 class wrong: %v", n.States[0].Class)
	}
	if got := n.States[1].Out; len(got) != 2 {
		t.Errorf("s1 should have 2 out edges (self loop + s2), got %v", got)
	}
	if !n.States[2].Report || n.States[2].ReportCode != 42 {
		t.Error("s2 should report with code 42")
	}
	// Semantics: matches (a|b)c+[x-z].
	ms := nfa.RunAll(n, []byte("accz"))
	if len(ms) != 1 || ms[0].Offset != 3 {
		t.Fatalf("matches = %v, want one at offset 3", ms)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown activate": `<anml><automata-network>
			<state-transition-element id="a" symbol-set="x" start="all-input">
			<activate-on-match element="nope"/></state-transition-element>
			</automata-network></anml>`,
		"duplicate id": `<anml><automata-network>
			<state-transition-element id="a" symbol-set="x" start="all-input"/>
			<state-transition-element id="a" symbol-set="y"/>
			</automata-network></anml>`,
		"bad start": `<anml><automata-network>
			<state-transition-element id="a" symbol-set="x" start="sometimes"/>
			</automata-network></anml>`,
		"bad symbol set": `<anml><automata-network>
			<state-transition-element id="a" symbol-set="[z-a]" start="all-input"/>
			</automata-network></anml>`,
		"bad report code": `<anml><automata-network>
			<state-transition-element id="a" symbol-set="x" start="all-input">
			<report-on-match reportcode="xyz"/></state-transition-element>
			</automata-network></anml>`,
		"missing id": `<anml><automata-network>
			<state-transition-element symbol-set="x" start="all-input"/>
			</automata-network></anml>`,
		"no start states": `<anml><automata-network>
			<state-transition-element id="a" symbol-set="x"/>
			</automata-network></anml>`,
		"not xml": `this is not xml at all <<<`,
	}
	for name, doc := range cases {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Read should fail", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	pats := []string{"abc", "a[bc]+d", "x.*y", "^hdr[0-9]{2}"}
	orig, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig, "rt", nil); err != nil {
		t.Fatal(err)
	}
	net, err := Read(&buf)
	if err != nil {
		t.Fatalf("re-read failed: %v\ndoc:\n%s", err, buf.String())
	}
	got := net.NFA
	if got.NumStates() != orig.NumStates() {
		t.Fatalf("states %d, want %d", got.NumStates(), orig.NumStates())
	}
	// Structural equality (Write preserves state order).
	for i := range orig.States {
		o, g := orig.States[i], got.States[i]
		if o.Class != g.Class || o.Start != g.Start || o.Report != g.Report || o.ReportCode != g.ReportCode {
			t.Fatalf("state %d differs: %+v vs %+v", i, o, g)
		}
		if len(o.Out) != len(g.Out) {
			t.Fatalf("state %d edges differ", i)
		}
	}
	// Behavioural equality on random input.
	r := rand.New(rand.NewSource(3))
	in := make([]byte, 500)
	for i := range in {
		in[i] = byte(r.Intn(256))
	}
	copy(in[100:], "abc")
	copy(in[200:], "abbccd")
	copy(in[300:], "xqqy")
	m1, m2 := nfa.RunAll(orig, in), nfa.RunAll(got, in)
	if len(m1) != len(m2) {
		t.Fatalf("match counts differ: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("match %d differs: %v vs %v", i, m1[i], m2[i])
		}
	}

	// Every registry NFA: Read gives encoding/xml's Network, and the
	// automaton Write was given, edges in the ascending order Write emits.
	for _, spec := range workload.All() {
		orig, err := spec.Build(1, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var doc bytes.Buffer
		if err := Write(&doc, orig, spec.Name, nil); err != nil {
			t.Fatal(err)
		}
		net, err := Read(bytes.NewReader(doc.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		want, err := readXML(bytes.NewReader(doc.Bytes()))
		if err != nil {
			t.Fatalf("%s: encoding/xml: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(net, want) {
			t.Fatalf("%s: Read and encoding/xml disagree", spec.Name)
		}
		sorted := orig.Clone()
		for i := range sorted.States {
			out := sorted.States[i].Out
			sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		}
		if !reflect.DeepEqual(net.NFA, sorted) {
			t.Fatalf("%s: Write→Read changed the automaton", spec.Name)
		}
	}
}

// TestWriteRejectsWhatReadRejects: Write refuses an automaton whose
// document Read would refuse, and writes nothing.
func TestWriteRejectsWhatReadRejects(t *testing.T) {
	start := nfa.State{Class: bitvec.ClassOf('a'), Start: nfa.AllInput}
	for _, tc := range []struct {
		name   string
		states []nfa.State
		ids    []string
	}{
		{"empty class", []nfa.State{start, {}}, nil},
		{"no start state", []nfa.State{{Class: bitvec.ClassOf('a')}}, nil},
		{"duplicate ids", []nfa.State{start, start}, []string{"s", "s"}},
		{"empty id", []nfa.State{start}, []string{""}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, &nfa.NFA{States: tc.states}, "x", tc.ids); err == nil {
			_, rerr := Read(&buf)
			t.Errorf("%s: Write succeeded on a document Read rejects (%v)", tc.name, rerr)
		} else if buf.Len() != 0 {
			t.Errorf("%s: Write failed after writing %d bytes", tc.name, buf.Len())
		}
	}
}

func TestWriteCustomIDs(t *testing.T) {
	n := nfa.New()
	n.AddState(nfa.State{Class: bitvec.ClassOf('a'), Start: nfa.AllInput})
	var buf bytes.Buffer
	if err := Write(&buf, n, "x", []string{"mystate"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `id="mystate"`) {
		t.Error("custom id not written")
	}
	if err := Write(&buf, n, "x", []string{"a", "b"}); err == nil {
		t.Error("mismatched id count should fail")
	}
}

func TestRandomRoundTripClasses(t *testing.T) {
	// Classes with control characters and metacharacters survive the
	// String() → ParseClass round trip embedded in Write/Read.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		var c bitvec.Class
		for i, k := 0, 1+r.Intn(10); i < k; i++ {
			c.Add(byte(r.Intn(256)))
		}
		n := nfa.New()
		n.AddState(nfa.State{Class: c, Start: nfa.AllInput})
		var buf bytes.Buffer
		if err := Write(&buf, n, "t", nil); err != nil {
			t.Fatal(err)
		}
		net, err := Read(&buf)
		if err != nil {
			t.Fatalf("class %v: %v\n%s", c, err, buf.String())
		}
		if net.NFA.States[0].Class != c {
			t.Fatalf("class round trip failed: %v → %v", c, net.NFA.States[0].Class)
		}
	}
}

// ste wraps state-transition-elements in a one-network document.
func ste(body string) string {
	return `<anml><automata-network id="n">` + body + `</automata-network></anml>`
}

// subsetCases has one row per construct Read accepts around the STE
// subset and one per document it rejects on purpose; accepted rows must
// decode as encoding/xml decoded them.
var subsetCases = []struct {
	name   string
	doc    string
	accept bool
}{
	{"comment", ste(`<!-- a - comment --><state-transition-element id="a" symbol-set="x" start="all-input"><!----></state-transition-element>`), true},
	{"processing instruction", `<?xml version="1.0" encoding="utf-8"?><?tool run?>` +
		ste(`<state-transition-element id="a" symbol-set="x" start="all-input"><?pi?></state-transition-element>`), true},
	{"single quotes", ste(`<state-transition-element id='a' symbol-set='["]' start='all-input'/>`), true},
	{"entities in symbol-set", ste(`<state-transition-element id="a" symbol-set="[&amp;a]" start="all-input">` +
		`<activate-on-match element="&#98;"/></state-transition-element>` +
		`<state-transition-element id="b" symbol-set="[&#38;b]"><activate-on-match element="c"/></state-transition-element>` +
		`<state-transition-element id="c" symbol-set="[&#x26;c&lt;&gt;&apos;&quot;]"/>`), true},
	{"unknown nested element", ste(`<state-transition-element id="a" symbol-set="x" start="all-input">` +
		`<counter><state-transition-element id="hidden" symbol-set="y"/></counter>` +
		`<activate-on-match element="a"><note>self</note></activate-on-match></state-transition-element><or/>`), true},
	{"xmlns attribute", `<anml xmlns="http://www.micron.com/anml" xmlns:x="urn:x"><automata-network id="n" x:extra="1">` +
		`<state-transition-element id="a" symbol-set="x" start="all-input"/></automata-network></anml>`, true},
	{"start none", ste(`<state-transition-element id="a" symbol-set="x" start="start-of-data"><activate-on-match element="b"/></state-transition-element>` +
		`<state-transition-element id="b" symbol-set="y" start="none"/>`), true},
	{"report without code", ste(`<state-transition-element id="a" symbol-set="x" start="all-input"><report-on-match/></state-transition-element>`), true},
	{"trailing bytes after the root", ste(`<state-transition-element id="a" symbol-set="x" start="all-input"/>`) + `<<not read`, true},

	{"doctype", `<!DOCTYPE anml>` + ste(`<state-transition-element id="a" symbol-set="x" start="all-input"/>`), false},
	{"cdata", ste(`<state-transition-element id="a" symbol-set="x" start="all-input"><![CDATA[text]]></state-transition-element>`), false},
	{"prefixed element", ste(`<a:state-transition-element id="a" symbol-set="x" start="all-input"/>`), false},
	{"second network", `<anml><automata-network id="n"><state-transition-element id="a" symbol-set="x" start="all-input"/></automata-network>` +
		`<automata-network id="m"><state-transition-element id="b" symbol-set="y" start="all-input"/></automata-network></anml>`, false},
	{"mismatched end tag", ste(`<state-transition-element id="a" symbol-set="x" start="all-input"></activate-on-match>`), false},
}

func TestReadSubset(t *testing.T) {
	for _, tc := range subsetCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := differential(t, tc.doc)
			if (err == nil) != tc.accept {
				t.Fatalf("accepted = %v, want %v (%v)", err == nil, tc.accept, err)
			}
			if !tc.accept && !outsideSubset(err, tc.doc) && tc.name != "mismatched end tag" {
				t.Fatalf("not rejected as outside the subset: %v", err)
			}
		})
	}
}

// edgeCases walks the XML around the subset, where Read must accept and
// reject exactly what encoding/xml did: names, quoting, references,
// character ranges, declarations, comments and unclosed structure.
var edgeCases = []struct {
	name   string
	doc    string
	accept bool
}{
	{"empty document", ``, false},
	{"white space only", " \r\n\t", false},
	{"text before the root", `garbage]]&gt;<anml/>`, true},
	{"empty root", `<anml/>`, true},
	{"empty network", `<anml version="1.0"><automata-network id="n"/></anml>`, true},
	{"wrong root", `<automata-network/>`, false},
	{"end tag first", `</anml>`, false},
	{"unclosed root", `<anml>`, false},
	{"unclosed network", `<anml><automata-network>`, false},
	{"unclosed skipped element", `<anml><x><y>`, false},
	{"mismatched skipped element", `<anml><x></y></anml>`, false},
	{"prefixed end tag", `<anml></x:anml>`, false},
	{"end tag with attribute", `<anml></anml x="1">`, false},
	{"space in end tag", `<anml></anml >`, true},
	{"space after <", `< anml/>`, false},
	{"space after </", `<anml></ anml>`, false},
	{"bare <", `<anml><`, false},
	{"bare < at the end", `<`, false},
	{"name at the end", `<anml`, false},
	{"digit starts a name", `<anml><1x/></anml>`, false},
	{"two colons in an attribute", `<anml a:b:c="1"/>`, false},
	{"empty element without >", `<anml/ >`, false},
	{"empty element at the end", `<anml/`, false},
	{"attribute at the end", `<anml a`, false},
	{"attribute without =", `<anml a/>`, false},
	{"attribute = at the end", `<anml a=`, false},
	{"unquoted attribute", `<anml a=1/>`, false},
	{"unterminated attribute", `<anml a="1`, false},
	{"attributes without space", ste(`<state-transition-element id="a"symbol-set="x"start="all-input"/>`), true},
	{"repeated attributes", ste(`<state-transition-element id="z" symbol-set="x" id="a" start="all-input" start="none" start="all-input"/>`), true},
	{"prefixed attributes", ste(`<state-transition-element x:id="a" symbol-set="x" xmlns:start="all-input"/>`), true},
	{"colon-edged attribute names", ste(`<state-transition-element id="a" :id="b" id:="c" symbol-set="x" start="all-input"/>`), true},
	{"non-ASCII names", ste(`<état é="1"/><state-transition-element id="a" symbol-set="x" start="all-input" naïve="1"/>`), true},
	{"invalid non-ASCII name", ste(`<·x/>`), false},
	{"non-ASCII text", ste(`héllo <state-transition-element id="é" symbol-set="x" start="all-input"/>`), true},
	{"invalid UTF-8", ste("\xff"), false},
	{"invalid UTF-8 in a value", ste("<state-transition-element id=\"\xc3\" symbol-set=\"x\" start=\"all-input\"/>"), false},
	{"noncharacter", ste("\uFFFE"), false},
	{"control character", ste("\x01"), false},
	{"control character in a value", ste("<state-transition-element id=\"\x01\" symbol-set=\"x\" start=\"all-input\"/>"), false},
	{"NUL", ste("\x00"), false},
	{"]]> in text", ste(`]]>`), false},
	{"]]> in a value", ste(`<state-transition-element id="]]>" symbol-set="x" start="all-input"/>`), true},
	{"< in a value", ste(`<state-transition-element id="<" symbol-set="x" start="all-input"/>`), false},
	{"carriage returns in a value", ste("<state-transition-element id=\"a\r\nb\rc&#13;\n\" symbol-set=\"x\" start=\"all-input\"/>"), true},
	{"hex digits both cases", ste(`<state-transition-element id="&#x4a;&#x4A;&#106;" symbol-set="[&#x7A;]" start="all-input"/>`), true},
	{"surrogate reference", ste(`<state-transition-element id="&#xD800;" symbol-set="x" start="all-input"/>`), true},
	{"reference to NUL", ste(`&#0;`), false},
	{"reference past Unicode", ste(`&#x110000;`), false},
	{"huge reference", ste(`&#99999999999999999999999;`), false},
	{"empty decimal reference", ste(`&#;`), false},
	{"empty hex reference", ste(`&#x;`), false},
	{"upper-case X reference", ste(`&#X41;`), false},
	{"reference with a letter", ste(`&#12a;`), false},
	{"unknown entity", ste(`&nbsp;`), false},
	{"entity without ;", ste(`&amp `), false},
	{"empty entity", ste(`&;`), false},
	{"entity at the end", `<anml>&am`, false},
	{"reference at the end", `<anml>&#`, false},
	{"xml declaration, single quotes", `<?xml version='1.0' encoding='UTF-8' standalone='yes'?><anml/>`, true},
	{"xml version 1.1", `<?xml version="1.1"?><anml/>`, false},
	{"xml encoding latin1", `<?xml version="1.0" encoding="ISO-8859-1"?><anml/>`, false},
	{"version= inside another name", `<?xml myversion="1.1"?><anml/>`, false},
	{"version= without quote", `<?xml version=1.1 version="1.0"?><anml/>`, true},
	{"version unterminated", `<?xml version="1.1?><anml/>`, true},
	{"declaration mid-document", ste(`<?xml encoding="latin1"?>`), false},
	{"processing instruction without target", `<? x?><anml/>`, false},
	{"unterminated processing instruction", `<?x `, false},
	{"-- in a comment", `<!-- a -- b --><anml/>`, false},
	{"unterminated comment", `<!--->`, false},
	{"comment at the end", `<!-- a --`, false},
	{"<!- without second -", `<!-x><anml/>`, false},
	{"<![ that is not CDATA", `<![x[]]><anml/>`, false},
	{"<! at the end", `<!`, false},
	{"entity declaration", `<!ENTITY x "y"><anml/>`, false},
	{"activate without element", ste(`<state-transition-element id="a" symbol-set="x" start="all-input"><activate-on-match/></state-transition-element>`), false},
	{"empty report code", ste(`<state-transition-element id="a" symbol-set="x" start="all-input"><report-on-match reportcode="7"/><report-on-match/><report-on-match reportcode=""/></state-transition-element>`), true},
	{"repeated report keeps its code", ste(`<state-transition-element id="a" symbol-set="x" start="all-input"><report-on-match reportcode="7"/><report-on-match/></state-transition-element>`), true},
	{"states outside the network", `<anml><state-transition-element id="a" symbol-set="x"/><automata-network id="n"/></anml>`, true},
	{"network nested in a skipped element", `<anml><x><automata-network id="m"/></x><automata-network id="n"/></anml>`, true},
}

func TestReadAgreesWithEncodingXML(t *testing.T) {
	for _, tc := range edgeCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := differential(t, tc.doc); (err == nil) != tc.accept {
				t.Fatalf("accepted = %v, want %v (%v)", err == nil, tc.accept, err)
			}
		})
	}
	if _, err := Read(iotest.ErrReader(io.ErrUnexpectedEOF)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a failing reader gives %v", err)
	}
}
