package rulefmt

import (
	"slices"
	"strings"
	"testing"

	"cacheautomaton/internal/nfa"
)

const sampleRules = `
# web attacks
alert tcp any any -> any 80 (msg:"PHF probe"; content:"/cgi-bin/phf"; sid:1001;)
alert tcp any any -> any 80 (msg:"shellcode"; content:"|90 90|AAAA"; nocase; sid:1002;)
alert tcp any any -> any any (msg:"regex rule"; pcre:"/attack[0-9]{2}x/i"; sid:1003;)
alert tcp any any -> any any (msg:"both"; content:"prefix"; pcre:"/suf.fix/"; sid:1004;)
`

func TestParseSnortRules(t *testing.T) {
	rules, err := ParseSnortRules(sampleRules)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(rules))
	}
	if rules[0].SID != 1001 || rules[0].Contents[0] != "/cgi-bin/phf" || rules[0].Msg != "PHF probe" {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	if !rules[1].NoCase {
		t.Error("rule 1 should be nocase")
	}
	if !rules[2].PCREs[0].CaseInsensitive || rules[2].PCREs[0].Pattern != "attack[0-9]{2}x" {
		t.Errorf("rule 2 pcre = %+v", rules[2].PCREs)
	}
	if len(rules[3].Contents) != 1 || len(rules[3].PCREs) != 1 {
		t.Errorf("rule 3 should have content + pcre: %+v", rules[3])
	}
}

func TestParseSnortErrors(t *testing.T) {
	bad := []string{
		`alert tcp (content:"unterminated;sid:1;)`,
		`alert tcp any any`,
		`alert tcp any any (msg:"no detection"; sid:5;)`,
		`alert tcp any any (content:"x"; sid:notanumber;)`,
		`alert tcp any any (pcre:"no-delims"; sid:1;)`,
		`alert tcp any any (pcre:"/x/q"; sid:1;)`,
	}
	for _, line := range bad {
		if _, err := ParseSnortRules(line); err == nil {
			t.Errorf("should fail: %s", line)
		}
	}
}

func TestCompileSnortSemantics(t *testing.T) {
	rules, err := ParseSnortRules(sampleRules)
	if err != nil {
		t.Fatal(err)
	}
	n, err := CompileSnort(rules)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		input string
		sids  map[int32]bool
	}{
		{"GET /cgi-bin/phf HTTP/1.0", map[int32]bool{1001: true}},
		{"xx\x90\x90aaaaxx", map[int32]bool{1002: true}}, // nocase content
		{"an ATTACK07x here", map[int32]bool{1003: true}},
		{"prefix then sufXfix", map[int32]bool{1004: true}},
		{"nothing of note", nil},
	}
	for _, tc := range cases {
		got := map[int32]bool{}
		for _, m := range nfa.RunAll(n, []byte(tc.input)) {
			got[m.Code] = true
		}
		if len(got) != len(tc.sids) {
			t.Errorf("input %q: sids %v, want %v", tc.input, got, tc.sids)
			continue
		}
		for sid := range tc.sids {
			if !got[sid] {
				t.Errorf("input %q: missing sid %d", tc.input, sid)
			}
		}
	}
}

func TestContentBinaryEscaping(t *testing.T) {
	// Content bytes that are regex metacharacters must be escaped.
	rules, err := ParseSnortRules(`alert tcp any any (content:"a.b*c[d"; sid:7;)`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := CompileSnort(rules)
	if err != nil {
		t.Fatal(err)
	}
	if ms := nfa.RunAll(n, []byte("xa.b*c[dy")); len(ms) != 1 {
		t.Errorf("literal metachars should match exactly once, got %d", len(ms))
	}
	if ms := nfa.RunAll(n, []byte("xaXbbbc[dy")); len(ms) != 0 {
		t.Error("'.' and '*' must not act as regex operators in content")
	}
}

func TestParseClamAVSignature(t *testing.T) {
	a, name, err := ParseClamAVSignature("Win.Test.Sig:4d5a??90{3}50", 9)
	if err != nil {
		t.Fatal(err)
	}
	if name != "Win.Test.Sig" {
		t.Errorf("name = %q", name)
	}
	// 4d 5a ?? 90 {3 any} 50 = 8 states.
	if a.NumStates() != 8 {
		t.Fatalf("states = %d, want 8", a.NumStates())
	}
	match := []byte{0x4d, 0x5a, 0xff, 0x90, 1, 2, 3, 0x50}
	ms := nfa.RunAll(a, match)
	if len(ms) != 1 || ms[0].Code != 9 {
		t.Fatalf("matches = %v", ms)
	}
	// Wrong fixed byte → no match.
	match[3] = 0x91
	if ms := nfa.RunAll(a, match); len(ms) != 0 {
		t.Error("mismatched fixed byte should not match")
	}
}

func TestParseClamAVErrors(t *testing.T) {
	for _, sig := range []string{"", "zz", "4d5", "4d{x}", "4d{99999}", "4d{3"} {
		if _, _, err := ParseClamAVSignature(sig, 0); err == nil {
			t.Errorf("signature %q should fail", sig)
		}
	}
}

func TestCompileClamAVDatabase(t *testing.T) {
	db := `
# test db
Eicar.Test:58354f2150
Trojan.Foo:dead??beef
`
	n, names, err := CompileClamAV(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "Eicar.Test" || names[1] != "Trojan.Foo" {
		t.Fatalf("names = %v", names)
	}
	ms := nfa.RunAll(n, []byte("xxX5O!Pyy\xde\xad\x00\xbe\xefzz"))
	if len(ms) != 2 {
		t.Fatalf("matches = %v, want both signatures", ms)
	}
	if ms[0].Code != 0 || ms[1].Code != 1 {
		t.Errorf("codes = %v", ms)
	}
	if _, _, err := CompileClamAV("Bad:zz"); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("bad db error = %v", err)
	}
}

func TestPatterns(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		want       []string
	}{
		{"empty", "", nil},
		{"blank and comment lines only", "\n  \n# a comment\n\t#indented comment\n", nil},
		{"one per line, trimmed", "  cat \n\tdog.*food\t\n", []string{"cat", "dog.*food"}},
		{"CRLF line ends", "cat\r\ndog\r\n", []string{"cat", "dog"}},
		{"no trailing newline", "a\nb", []string{"a", "b"}},
		{"a # inside a pattern is kept", "a#b\n#c\n", []string{"a#b"}},
	} {
		if got := Patterns(tc.text); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Patterns(%q) = %q, want %q", tc.name, tc.text, got, tc.want)
		}
	}
}
