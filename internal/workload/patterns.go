package workload

import (
	"math/rand"
	"strings"

	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
)

// Safe literal alphabets (no regex metacharacters).
const (
	lettersLower = "abcdefghijklmnopqrstuvwxyz"
	alnum        = "abcdefghijklmnopqrstuvwxyz0123456789"
	aminoAcids   = "ACDEFGHIKLMNPQRSTVWY"
)

func randFrom(r *rand.Rand, alpha string) byte { return alpha[r.Intn(len(alpha))] }

func randWord(r *rand.Rand, lo, hi int, alpha string) string {
	n := lo
	if hi > lo {
		n += r.Intn(hi - lo + 1)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = randFrom(r, alpha)
	}
	return string(b)
}

// compileRules compiles patterns with report code = rule index, panicking
// on generator bugs (the generators only emit valid syntax).
func compileRules(pats []string, opts regexc.Options) *nfa.NFA {
	n, err := regexc.CompileSet(pats, opts)
	if err != nil {
		panic("workload: generated invalid pattern: " + err.Error())
	}
	return n
}

// literalWithRanges emits a literal pattern where each position is, with
// probability rangeProb, widened to a character range containing the
// original symbol. Returns the pattern and a concrete matching literal.
func literalWithRanges(r *rand.Rand, n int, rangeProb float64) (pattern, literal string) {
	var pat, lit strings.Builder
	for i := 0; i < n; i++ {
		c := randFrom(r, lettersLower)
		lit.WriteByte(c)
		if r.Float64() < rangeProb {
			lo := c
			if lo > 'a' {
				lo -= byte(r.Intn(int(lo - 'a' + 1)))
			}
			hi := c + byte(r.Intn(int('z'-c)+1))
			pat.WriteByte('[')
			pat.WriteByte(lo)
			pat.WriteByte('-')
			pat.WriteByte(hi)
			pat.WriteByte(']')
		} else {
			pat.WriteByte(c)
		}
	}
	return pat.String(), lit.String()
}

// literalWithDotstars splits a literal with ".*" gaps inserted with the
// given per-position probability. The concatenated literal (no gap text)
// still matches.
func literalWithDotstars(r *rand.Rand, n int, gapProb float64) (pattern, literal string) {
	var pat, lit strings.Builder
	for i := 0; i < n; i++ {
		c := randFrom(r, alnum)
		lit.WriteByte(c)
		pat.WriteByte(c)
		// Gaps only after a solid 8-symbol prefix: real Dotstar rules put
		// .* between meaningful tokens, which keeps trigger rates low on
		// random traffic.
		if i >= 8 && i < n-3 && r.Float64() < gapProb {
			pat.WriteString(".*")
		}
	}
	return pat.String(), lit.String()
}

// byteChainNFA builds a literal byte-sequence matcher directly (used for
// binary signatures where regex escaping is pointless overhead). Positions
// listed in wildcards become any-byte classes — ClamAV's "??" wildcard
// bytes.
func byteChainNFA(sig []byte, wildcards map[int]bool, code int32) *nfa.NFA {
	a := nfa.New()
	classAt := func(i int) bitvec.Class {
		if wildcards[i] {
			return bitvec.AllSymbols()
		}
		return bitvec.ClassOf(sig[i])
	}
	prev := a.AddState(nfa.State{Class: classAt(0), Start: nfa.AllInput})
	for i := 1; i < len(sig); i++ {
		cur := a.AddState(nfa.State{Class: classAt(i)})
		a.AddEdge(prev, cur)
		prev = cur
	}
	a.States[prev].Report = true
	a.States[prev].ReportCode = code
	return a
}

// rangeChainNFA builds a chain of byte-range classes (RandomForest-style
// threshold tests). selectivity is the fraction of the 256-symbol space
// each position accepts. It also returns a witness byte string satisfying
// the chain (a feature vector classified by this path).
func rangeChainNFA(r *rand.Rand, length int, selectivity float64, code int32) (*nfa.NFA, string) {
	a := nfa.New()
	width := int(256 * selectivity)
	if width < 1 {
		width = 1
	}
	witness := make([]byte, length)
	var prev nfa.StateID = nfa.None
	for i := 0; i < length; i++ {
		lo := r.Intn(256 - width + 1)
		st := nfa.State{Class: bitvec.ClassRange(byte(lo), byte(lo+width-1))}
		witness[i] = byte(lo + r.Intn(width))
		if i == 0 {
			st.Start = nfa.AllInput
		}
		if i == length-1 {
			st.Report, st.ReportCode = true, code
		}
		cur := a.AddState(st)
		if prev != nfa.None {
			a.AddEdge(prev, cur)
		}
		prev = cur
	}
	return a, string(witness)
}

// prositeElement emits one PROSITE-style position — a specific amino acid,
// a small class, or "x" (any amino acid) — plus a witness residue
// satisfying it.
func prositeElement(r *rand.Rand) (elem string, witness byte) {
	switch p := r.Float64(); {
	case p < 0.45:
		c := randFrom(r, aminoAcids)
		return string(c), c
	case p < 0.65:
		k := 2 + r.Intn(3)
		seen := map[byte]bool{}
		var sb strings.Builder
		sb.WriteByte('[')
		var first byte
		for len(seen) < k {
			c := randFrom(r, aminoAcids)
			if !seen[c] {
				if first == 0 {
					first = c
				}
				seen[c] = true
				sb.WriteByte(c)
			}
		}
		sb.WriteByte(']')
		return sb.String(), first
	default:
		return "[" + aminoAcids + "]", randFrom(r, aminoAcids) // "x"
	}
}

// Input symbol drawers.
func symUniform(r *rand.Rand) byte { return byte(r.Intn(256)) }
func symAmino(r *rand.Rand) byte   { return randFrom(r, aminoAcids) }

// symText draws English-like text: letters weighted by a rough frequency
// table plus spaces and digits.
func symText(r *rand.Rand) byte {
	const freq = "eeeeetttaaooiinnsshhrrddlcumwfgypbvk jxqz"
	switch p := r.Intn(100); {
	case p < 16:
		return ' '
	case p < 18:
		return byte('0' + r.Intn(10))
	default:
		return freq[r.Intn(len(freq))]
	}
}
