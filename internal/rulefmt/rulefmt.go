// Package rulefmt parses the two real-world signature formats behind the
// paper's network-security workloads (§1, Table 1: Snort, ClamAV) into
// homogeneous NFAs:
//
//   - a Snort-style rule line: the content:"…" and pcre:"/…/flags" options
//     of each rule become patterns, reported under the rule's sid;
//   - a ClamAV-style hex signature: "Name:aabb??cc{4}dd" — pairs of hex
//     digits are exact bytes, "??" is a wildcard byte, "{n}" skips exactly
//     n arbitrary bytes.
//
// This is the front door an adopter would use to load their existing rule
// sets onto the Cache Automaton.
package rulefmt

import (
	"fmt"
	"strconv"
	"strings"

	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
)

// SnortRule is one parsed rule.
type SnortRule struct {
	// SID is the rule's signature id (report code).
	SID int32
	// Msg is the rule message.
	Msg string
	// Contents are the literal content matches.
	Contents []string
	// PCREs are the regex bodies (already stripped of delimiters), with
	// their case-insensitivity flag.
	PCREs []PCRE
	// NoCase applies to Contents.
	NoCase bool
}

// PCRE is one pcre option body.
type PCRE struct {
	Pattern         string
	CaseInsensitive bool
}

// ParseSnortRules parses rule lines (comments and blanks skipped). Only
// the payload-detection options the automaton executes are interpreted
// (content, pcre, nocase, msg, sid); everything else is ignored, like a
// DPI offload engine would.
func ParseSnortRules(text string) ([]SnortRule, error) {
	var rules []SnortRule
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		open := strings.IndexByte(line, '(')
		close := strings.LastIndexByte(line, ')')
		if open < 0 || close < open {
			return nil, fmt.Errorf("rulefmt: line %d: missing rule body parentheses", lineNo+1)
		}
		rule := SnortRule{SID: -1}
		body := line[open+1 : close]
		opts, err := splitOptions(body)
		if err != nil {
			return nil, fmt.Errorf("rulefmt: line %d: %v", lineNo+1, err)
		}
		for _, opt := range opts {
			name, val, _ := strings.Cut(opt, ":")
			name = strings.TrimSpace(name)
			val = strings.TrimSpace(val)
			switch name {
			case "content":
				q, err := unquote(val)
				if err != nil {
					return nil, fmt.Errorf("rulefmt: line %d: content: %v", lineNo+1, err)
				}
				c, err := decodeContent(q)
				if err != nil {
					return nil, fmt.Errorf("rulefmt: line %d: content: %v", lineNo+1, err)
				}
				rule.Contents = append(rule.Contents, c)
			case "pcre":
				q, err := unquote(val)
				if err != nil {
					return nil, fmt.Errorf("rulefmt: line %d: pcre: %v", lineNo+1, err)
				}
				p, err := stripPCREDelims(q)
				if err != nil {
					return nil, fmt.Errorf("rulefmt: line %d: %v", lineNo+1, err)
				}
				rule.PCREs = append(rule.PCREs, p)
			case "nocase":
				rule.NoCase = true
			case "msg":
				rule.Msg, _ = unquote(val)
			case "sid":
				sid, err := strconv.ParseInt(val, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("rulefmt: line %d: bad sid %q", lineNo+1, val)
				}
				rule.SID = int32(sid)
			}
		}
		if len(rule.Contents) == 0 && len(rule.PCREs) == 0 {
			return nil, fmt.Errorf("rulefmt: line %d: rule has no content or pcre option", lineNo+1)
		}
		if rule.SID < 0 {
			rule.SID = int32(len(rules) + 1000000) // synthesized sid
		}
		rules = append(rules, rule)
	}
	return rules, nil
}

// splitOptions splits a rule body on ';' outside quotes.
func splitOptions(body string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c == '"' && (i == 0 || body[i-1] != '\\'):
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ';' && !inQuote:
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out, nil
}

func unquote(v string) (string, error) {
	if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
		return "", fmt.Errorf("expected quoted value, got %q", v)
	}
	s := v[1 : len(v)-1]
	s = strings.ReplaceAll(s, `\"`, `"`)
	s = strings.ReplaceAll(s, `\\`, `\`)
	return s, nil
}

func stripPCREDelims(q string) (PCRE, error) {
	if len(q) < 2 || q[0] != '/' {
		return PCRE{}, fmt.Errorf("pcre must be /pattern/flags, got %q", q)
	}
	end := strings.LastIndexByte(q, '/')
	if end == 0 {
		return PCRE{}, fmt.Errorf("pcre missing closing delimiter: %q", q)
	}
	p := PCRE{Pattern: q[1:end]}
	for _, f := range q[end+1:] {
		switch f {
		case 'i':
			p.CaseInsensitive = true
		case 's', 'm': // accepted, no-ops in the streaming model
		default:
			return PCRE{}, fmt.Errorf("unsupported pcre flag %q", f)
		}
	}
	return p, nil
}

// decodeContent expands Snort's |..| hex-pipe notation: bytes inside pipe
// pairs are hex (space-separated), everything else is literal.
func decodeContent(c string) (string, error) {
	var out []byte
	inHex := false
	var hexBuf strings.Builder
	flushHex := func() error {
		for _, tok := range strings.Fields(hexBuf.String()) {
			if len(tok) != 2 {
				return fmt.Errorf("bad hex byte %q in |...|", tok)
			}
			b, err := strconv.ParseUint(tok, 16, 8)
			if err != nil {
				return fmt.Errorf("bad hex byte %q in |...|", tok)
			}
			out = append(out, byte(b))
		}
		hexBuf.Reset()
		return nil
	}
	for i := 0; i < len(c); i++ {
		if c[i] == '|' {
			if inHex {
				if err := flushHex(); err != nil {
					return "", err
				}
			}
			inHex = !inHex
			continue
		}
		if inHex {
			hexBuf.WriteByte(c[i])
		} else {
			out = append(out, c[i])
		}
	}
	if inHex {
		return "", fmt.Errorf("unterminated |...| hex block")
	}
	return string(out), nil
}

// escapeLiteral regex-escapes a content literal.
func escapeLiteral(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == ' ' || c == '_' {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, `\x%02x`, c)
		}
	}
	return b.String()
}

// CompileSnort builds one NFA for a rule set: every content literal and
// every pcre becomes a connected component reporting the rule's sid.
func CompileSnort(rules []SnortRule) (*nfa.NFA, error) {
	var parts []*nfa.NFA
	for _, rule := range rules {
		for _, c := range rule.Contents {
			one, err := regexc.Compile(escapeLiteral(c), rule.SID, regexc.Options{CaseInsensitive: rule.NoCase})
			if err != nil {
				return nil, fmt.Errorf("rulefmt: sid %d content %q: %v", rule.SID, c, err)
			}
			parts = append(parts, one)
		}
		for _, p := range rule.PCREs {
			one, err := regexc.Compile(p.Pattern, rule.SID, regexc.Options{CaseInsensitive: p.CaseInsensitive})
			if err != nil {
				return nil, fmt.Errorf("rulefmt: sid %d pcre %q: %v", rule.SID, p.Pattern, err)
			}
			parts = append(parts, one)
		}
	}
	out := nfa.New()
	out.Union(parts...)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseClamAVSignature parses "Name:hexsig" (or a bare hex signature) into
// an NFA chain reporting `code`. Supported hexsig elements: hex byte
// pairs, "??" wildcard bytes, and "{n}" fixed-length skips.
func ParseClamAVSignature(sig string, code int32) (*nfa.NFA, string, error) {
	name := ""
	if i := strings.IndexByte(sig, ':'); i >= 0 {
		name, sig = sig[:i], sig[i+1:]
	}
	sig = strings.TrimSpace(sig)
	var classes []bitvec.Class
	for i := 0; i < len(sig); {
		switch {
		case sig[i] == '?' && i+1 < len(sig) && sig[i+1] == '?':
			classes = append(classes, bitvec.AllSymbols())
			i += 2
		case sig[i] == '{':
			end := strings.IndexByte(sig[i:], '}')
			if end < 0 {
				return nil, name, fmt.Errorf("rulefmt: unterminated {n} in %q", sig)
			}
			n, err := strconv.Atoi(sig[i+1 : i+end])
			if err != nil || n < 0 || n > 4096 {
				return nil, name, fmt.Errorf("rulefmt: bad skip count in %q", sig)
			}
			for k := 0; k < n; k++ {
				classes = append(classes, bitvec.AllSymbols())
			}
			i += end + 1
		default:
			if i+2 > len(sig) {
				return nil, name, fmt.Errorf("rulefmt: dangling hex digit in %q", sig)
			}
			b, err := strconv.ParseUint(sig[i:i+2], 16, 8)
			if err != nil {
				return nil, name, fmt.Errorf("rulefmt: bad hex byte %q in signature", sig[i:i+2])
			}
			classes = append(classes, bitvec.ClassOf(byte(b)))
			i += 2
		}
	}
	if len(classes) == 0 {
		return nil, name, fmt.Errorf("rulefmt: empty signature")
	}
	a := nfa.New()
	var prev nfa.StateID = nfa.None
	for i, cl := range classes {
		st := nfa.State{Class: cl}
		if i == 0 {
			st.Start = nfa.AllInput
		}
		if i == len(classes)-1 {
			st.Report, st.ReportCode = true, code
		}
		cur := a.AddState(st)
		if prev != nfa.None {
			a.AddEdge(prev, cur)
		}
		prev = cur
	}
	return a, name, nil
}

// Patterns splits a regex rule file into its patterns: one per line,
// trimmed, skipping blank lines and lines starting with '#'.
func Patterns(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

// CompileClamAV parses a signature database (one "Name:hexsig" per line)
// into one NFA; signature i reports code i. It returns the NFA and the
// signature names in code order.
func CompileClamAV(text string) (*nfa.NFA, []string, error) {
	var parts []*nfa.NFA
	var names []string
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		one, name, err := ParseClamAVSignature(line, int32(len(names)))
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		parts = append(parts, one)
		names = append(names, name)
	}
	out := nfa.New()
	out.Union(parts...)
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	return out, names, nil
}
