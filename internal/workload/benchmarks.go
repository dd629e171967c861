package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"cacheautomaton/internal/bitvec"
	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
)

// registry lists the 20 Table-1 benchmarks in paper order.
var registry = []*Spec{
	dotstarSpec("Dotstar03", 0.015,
		PaperRow{12144, 299, 92, 3.78, 11124, 56, 1639, 0.84}),
	dotstarSpec("Dotstar06", 0.03,
		PaperRow{12640, 298, 104, 37.55, 11598, 54, 1595, 3.40}),
	dotstarSpec("Dotstar09", 0.045,
		PaperRow{12431, 297, 104, 38.07, 11229, 59, 1509, 4.39}),
	rangesSpec("Ranges05", 0.05,
		PaperRow{12439, 299, 94, 6.00, 11596, 63, 1197, 1.53}),
	rangesSpec("Ranges1", 0.10,
		PaperRow{12464, 297, 96, 6.43, 11418, 57, 1820, 1.46}),
	rangesSpec("ExactMatch", 0,
		PaperRow{12439, 297, 87, 5.99, 11270, 53, 998, 1.42}),
	bro217Spec(),
	tcpSpec(),
	snortSpec(),
	brillSpec(),
	clamAVSpec(),
	dotstarBigSpec(),
	entityResolutionSpec(),
	levenshteinSpec(),
	hammingSpec(),
	fermiSpec(),
	spmSpec(),
	randomForestSpec(),
	powerENSpec(),
	protomataSpec(),
}

// dotstarSpec: Regex-suite rule sets with ".*" gaps inserted at the given
// per-position probability (Dotstar03/06/09, [5]).
func dotstarSpec(name string, gapProb float64, paper PaperRow) *Spec {
	return &Spec{
		Name: name,
		Description: "Regex-suite deep-packet-inspection rules with unbounded .* gaps " +
			"between content tokens; gap density increases 03→06→09.",
		Paper: paper,
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(paper.CCs, scale)
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				n := 24 + r.Intn(34)
				if i == 0 {
					n = paper.LargestCC - 4 // one rule at the published max CC size
				}
				pats[i], lits[i] = literalWithDotstars(r, n, gapProb)
			}
			return compileRules(pats, regexc.Options{}), lits
		},
		inputSym:   symUniform,
		plantEvery: 4096,
	}
}

// rangesSpec: Regex-suite literal rules with character ranges at the given
// per-position probability (Ranges05/Ranges1/ExactMatch, [5]).
func rangesSpec(name string, rangeProb float64, paper PaperRow) *Spec {
	return &Spec{
		Name: name,
		Description: "Regex-suite literal signatures; a fraction of positions are " +
			"widened to character ranges (0 for ExactMatch).",
		Paper: paper,
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(paper.CCs, scale)
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				n := 24 + r.Intn(34)
				if i == 0 {
					n = paper.LargestCC
				}
				pats[i], lits[i] = literalWithRanges(r, n, rangeProb)
			}
			return compileRules(pats, regexc.Options{}), lits
		},
		inputSym:   symText,
		plantEvery: 4096,
	}
}

func bro217Spec() *Spec {
	return &Spec{
		Name: "Bro217",
		Description: "Bro IDS HTTP signature set: short method/header/path literals " +
			"(avg ≈12 states per rule).",
		Paper: PaperRow{2312, 187, 84, 3.40, 1893, 59, 245, 1.89},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(187, scale)
			methods := []string{"get ", "post ", "head ", "put "}
			pats := make([]string, count)
			for i := range pats {
				switch r.Intn(3) {
				case 0:
					pats[i] = methods[r.Intn(len(methods))] + "/" + randWord(r, 4, 8, lettersLower)
				case 1:
					pats[i] = randWord(r, 5, 8, lettersLower) + ": " + randWord(r, 4, 7, alnum)
				default:
					pats[i] = "/" + randWord(r, 4, 6, lettersLower) + "/" + randWord(r, 4, 6, lettersLower)
				}
				if i == 0 { // published largest CC
					pats[i] = "host: " + randWord(r, 78-6, 78-6, alnum)
				}
			}
			return compileRules(pats, regexc.Options{}), pats
		},
		inputSym:   symText,
		plantEvery: 1024,
	}
}

func tcpSpec() *Spec {
	return &Spec{
		Name: "TCP",
		Description: "Regex-suite TCP stream rules: flag/port literals with counted " +
			"offsets; a few rules carry long .{k} position gaps (largest CC 391).",
		Paper: PaperRow{19704, 715, 391, 12.94, 13819, 47, 3898, 2.21},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(715, scale)
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				switch {
				case i < 3 && scale >= 0.5:
					// Long positional rules: lit(24) .{340} lit(24) ≈ 389 states.
					a := randWord(r, 24, 24, alnum)
					b := randWord(r, 24, 24, alnum)
					pats[i] = a + ".{341}" + b
					lits[i] = a
				case r.Intn(3) == 0:
					w := randWord(r, 14, 22, lettersLower)
					pats[i] = w + "[0-9]{4}"
					lits[i] = w + "8080"
				default:
					pats[i], lits[i] = literalWithRanges(r, 20+r.Intn(16), 0.05)
				}
			}
			return compileRules(pats, regexc.Options{MaxRepeat: 512}), lits
		},
		inputSym:   symText,
		plantEvery: 2048,
	}
}

func snortSpec() *Spec {
	return &Spec{
		Name: "Snort",
		Description: "Snort IDS rule contents: web paths, header keys, hex shellcode " +
			"bytes and bounded class repeats (≈5700-rule scale ruleset).",
		Paper: PaperRow{69029, 2585, 222, 431.43, 34480, 73, 10513, 29.59},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(2585, scale)
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				switch {
				case i < count/200: // a handful of big shared-prefix rules (largest CC ≈222)
					prefix := randWord(r, 20, 20, alnum)
					var alts []string
					for a := 0; a < 5; a++ {
						alts = append(alts, randWord(r, 39, 41, alnum))
					}
					pats[i] = prefix + "(" + strings.Join(alts, "|") + ")"
					lits[i] = prefix + alts[0]
				case r.Intn(10) == 0: // binary content
					var sb strings.Builder
					var lit []byte
					for k := 0; k < 10+r.Intn(8); k++ {
						b := byte(r.Intn(256))
						fmt.Fprintf(&sb, `\x%02x`, b)
						lit = append(lit, b)
					}
					pats[i] = sb.String()
					lits[i] = string(lit)
				case i%8 == 1: // wide-class prefixes (pcre-style \w\w rules)
					w := randWord(r, 14, 22, lettersLower)
					pats[i] = "[a-z][a-z]" + w
					lits[i] = "xy" + w
				case r.Intn(4) == 0: // class repeats
					w := randWord(r, 10, 16, lettersLower)
					pats[i] = w + "=[0-9a-f]{8}"
					lits[i] = w + "=deadbeef"
				default:
					// Web rules share a small pool of path prefixes
					// (/cgi-bin/, /scripts/, …), which is what the paper's
					// prefix merging collapses (69k → 34k states).
					w1 := prefixPool[r.Intn(len(prefixPool))]
					w2 := randWord(r, 8, 16, alnum)
					w3 := randWord(r, 3, 4, lettersLower)
					pats[i] = w1 + w2 + "." + w3
					lits[i] = pats[i]
				}
			}
			return compileRules(pats, regexc.Options{}), lits
		},
		inputSym:   symText,
		plantEvery: 512,
	}
}

// prefixPool is the shared rule-path vocabulary of the Snort generator.
var prefixPool = func() []string {
	r := rand.New(rand.NewSource(424242))
	out := make([]string, 30)
	for i := range out {
		out[i] = "/" + randWord(r, 6, 12, lettersLower) + "/"
	}
	return out
}()

func brillSpec() *Spec {
	return &Spec{
		Name: "Brill",
		Description: "Brill part-of-speech tagger rule templates [49]: word/tag " +
			"context strings over a shared vocabulary; input text is drawn from " +
			"the same vocabulary, keeping many rules partially matched.",
		Paper: PaperRow{42568, 1962, 67, 1662.76, 26364, 1, 26364, 14.29},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(1962, scale)
			vocab := make([]string, 200)
			for i := range vocab {
				vocab[i] = randWord(r, 5, 9, lettersLower)
			}
			pats := make([]string, count)
			for i := range pats {
				w1 := vocab[r.Intn(len(vocab))]
				w2 := vocab[r.Intn(len(vocab))]
				switch {
				case i%2 == 0:
					// Context template: "previous word is anything, current
					// word is w2" — the any-word positions stay active through
					// every word of the stream.
					pats[i] = " [a-z]{4,8} " + w2 + " "
				case r.Intn(3) == 0:
					pats[i] = " " + w1 + " " + w2 + " "
				default:
					w3 := vocab[r.Intn(len(vocab))]
					pats[i] = " " + w1 + " " + w2 + " " + w3
				}
				if i == 0 {
					pats[i] = " " + randWord(r, 65, 65, lettersLower)
				}
			}
			return compileRules(pats, regexc.Options{}), pats
		},
		inputSym: symText,
		customInput: func(r *rand.Rand, size int, lits []string) []byte {
			// Tagger input IS vocabulary text: words drawn from the same
			// vocabulary the rules reference.
			words := itemVocab(lits)
			var out []byte
			for len(out) < size {
				out = append(out, ' ')
				out = append(out, words[r.Intn(len(words))]...)
			}
			return out[:size]
		},
	}
}

func clamAVSpec() *Spec {
	return &Spec{
		Name: "ClamAV",
		Description: "ClamAV virus byte signatures: long exact binary strings " +
			"(avg ≈96 bytes, a few >500), built directly as byte chains.",
		Paper: PaperRow{49538, 515, 542, 82.84, 42543, 41, 11965, 4.30},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(515, scale)
			parts := make([]*nfa.NFA, count)
			lits := make([]string, count)
			for i := 0; i < count; i++ {
				n := 60 + r.Intn(70)
				if i < 2 && scale >= 0.5 {
					n = 530 + r.Intn(12) // published largest CC 542
				}
				sig := make([]byte, n)
				wild := map[int]bool{}
				for k := range sig {
					sig[k] = byte(r.Intn(256))
					// ClamAV signatures carry "??" wildcard bytes; they are
					// what keeps states active on non-matching traffic.
					if k > 0 && r.Intn(10) == 0 {
						wild[k] = true
					}
				}
				parts[i] = byteChainNFA(sig, wild, int32(i))
				lits[i] = string(sig)
			}
			out := nfa.New()
			out.Union(parts...)
			return out, lits
		},
		inputSym:   symUniform,
		plantEvery: 2048,
	}
}

func dotstarBigSpec() *Spec {
	paper := PaperRow{96438, 2837, 95, 45.05, 38951, 90, 2977, 3.25}
	return &Spec{
		Name: "Dotstar",
		Description: "The full Dotstar ruleset [5]: ≈2800 rules mixing exact, " +
			"ranged and gapped signatures.",
		Paper: paper,
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(paper.CCs, scale)
			// Rules share content-token prefixes from a pool, giving the
			// space design its 2.5x state reduction (96k → 39k).
			pool := make([]string, 80)
			for i := range pool {
				pool[i] = randWord(r, 10, 14, alnum)
			}
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				n := 8 + r.Intn(28)
				if i == 0 {
					n = paper.LargestCC - 3
				}
				var body, lit string
				switch i % 3 {
				case 0:
					body, lit = literalWithDotstars(r, n, 0.03)
				case 1:
					body, lit = literalWithRanges(r, n, 0.05)
				default:
					body, lit = literalWithRanges(r, n, 0)
				}
				p := pool[r.Intn(len(pool))]
				pats[i] = p + body
				lits[i] = p + lit
			}
			return compileRules(pats, regexc.Options{}), lits
		},
		inputSym:   symUniform,
		plantEvery: 4096,
	}
}

func entityResolutionSpec() *Spec {
	return &Spec{
		Name: "EntityResolution",
		Description: "Approximate name matching [7]: per-entity automata accepting " +
			"token variants (nicknames, spelling variants) of three-token names.",
		Paper: PaperRow{95136, 1000, 96, 1192.84, 5672, 5, 4568, 7.88},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(1000, scale)
			// A shared name vocabulary with per-name spelling variants:
			// entities reuse names, which is exactly why the paper's
			// prefix-merged ER collapses from 95k to 5.7k states.
			type name struct{ alts, first string }
			mkVocab := func(n int) []name {
				out := make([]name, n)
				for i := range out {
					base := randWord(r, 10, 10, lettersLower)
					vars := []string{base}
					for v := 0; v < 2; v++ {
						b := []byte(base)
						b[r.Intn(len(b))] = randFrom(r, lettersLower)
						vars = append(vars, string(b))
					}
					out[i] = name{alts: "(" + strings.Join(vars, "|") + ")", first: base}
				}
				return out
			}
			firsts := mkVocab(scaleCount(40, scale))
			mids := mkVocab(scaleCount(60, scale))
			lasts := mkVocab(scaleCount(80, scale))
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				f := firsts[r.Intn(len(firsts))]
				m := mids[r.Intn(len(mids))]
				l := lasts[r.Intn(len(lasts))]
				pats[i] = f.alts + " " + m.alts + " " + l.alts
				lits[i] = f.first + " " + m.first + " " + l.first
			}
			return compileRules(pats, regexc.Options{}), lits
		},
		inputSym:   symText,
		plantEvery: 512,
	}
}

func levenshteinSpec() *Spec {
	return &Spec{
		Name: "Levenshtein",
		Description: "Edit-distance-3 fuzzy search automata for 24 length-16 " +
			"patterns (exact construction; see LevenshteinNFA).",
		Paper: PaperRow{2784, 24, 116, 114.21, 2784, 1, 2605, 114.21},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(24, scale)
			parts := make([]*nfa.NFA, count)
			lits := make([]string, count)
			for i := 0; i < count; i++ {
				p := randWord(r, 16, 16, "ACGT")
				parts[i] = LevenshteinNFA(p, 3, int32(i))
				// Plant a 1-edit corruption so fuzzy matches fire.
				b := []byte(p)
				b[r.Intn(len(b))] = randFrom(r, "ACGT")
				lits[i] = string(b)
			}
			out := nfa.New()
			out.Union(parts...)
			return out, lits
		},
		inputSym:   func(r *rand.Rand) byte { return randFrom(r, "ACGT") },
		plantEvery: 512,
	}
}

func hammingSpec() *Spec {
	return &Spec{
		Name: "Hamming",
		Description: "Hamming-distance-2 window matchers for 93 length-24 " +
			"patterns (exact construction; see HammingNFA).",
		Paper: PaperRow{11346, 93, 122, 285.1, 11254, 69, 11254, 240.09},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(93, scale)
			parts := make([]*nfa.NFA, count)
			lits := make([]string, count)
			for i := 0; i < count; i++ {
				p := randWord(r, 24, 24, "ACGT")
				parts[i] = HammingNFA(p, 2, int32(i))
				b := []byte(p)
				b[r.Intn(len(b))] = randFrom(r, "ACGT")
				lits[i] = string(b)
			}
			out := nfa.New()
			out.Union(parts...)
			return out, lits
		},
		inputSym:   func(r *rand.Rand) byte { return randFrom(r, "ACGT") },
		plantEvery: 1024,
	}
}

func fermiSpec() *Spec {
	return &Spec{
		Name: "Fermi",
		Description: "Fermi particle-track path expressions [39]: 17-state rules " +
			"whose leading positions are wide detector-coordinate windows " +
			"(byte ranges covering ~3/4 of the alphabet), so most rules advance " +
			"most cycles — the highest sustained activity in Table 1. The " +
			"windows differ per rule, which is why state merging barely " +
			"shrinks this benchmark (paper: 40783 → 39032).",
		Paper: PaperRow{40783, 2399, 17, 4715.96, 39032, 648, 39038, 4715.96},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(2399, scale)
			parts := make([]*nfa.NFA, count)
			lits := make([]string, count)
			for i := 0; i < count; i++ {
				chain := nfa.New()
				var prev nfa.StateID = nfa.None
				var witness []byte
				for k := 0; k < 3; k++ { // coordinate windows
					width := 160 + r.Intn(65)
					lo := r.Intn(256 - width + 1)
					st := nfa.State{Class: bitvec.ClassRange(byte(lo), byte(lo+width-1))}
					if k == 0 {
						st.Start = nfa.AllInput
					}
					witness = append(witness, byte(lo+r.Intn(width)))
					cur := chain.AddState(st)
					if prev != nfa.None {
						chain.AddEdge(prev, cur)
					}
					prev = cur
				}
				for k := 0; k < 14; k++ { // exact hit signature
					b := byte(r.Intn(256))
					st := nfa.State{Class: bitvec.ClassOf(b)}
					if k == 13 {
						st.Report, st.ReportCode = true, int32(i)
					}
					witness = append(witness, b)
					cur := chain.AddState(st)
					chain.AddEdge(prev, cur)
					prev = cur
				}
				parts[i] = chain
				lits[i] = string(witness)
			}
			out := nfa.New()
			out.Union(parts...)
			return out, lits
		},
		inputSym:   symUniform,
		plantEvery: 2048,
	}
}

func spmSpec() *Spec {
	return &Spec{
		Name: "SPM",
		Description: "Sequential pattern mining [41]: item sequences with " +
			"transaction-bounded gaps (a[^;]*b[^;]*c); gap states stay active " +
			"until the next transaction separator, giving the largest " +
			"sustained active set.",
		Paper: PaperRow{100500, 5025, 20, 6964.47, 18126, 1, 18126, 1432.55},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(5025, scale)
			vocab := make([]string, 16)
			for i := range vocab {
				vocab[i] = randWord(r, 6, 6, lettersLower)
			}
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				a := vocab[r.Intn(len(vocab))]
				b := vocab[r.Intn(len(vocab))]
				c := vocab[r.Intn(len(vocab))]
				pats[i] = a + "[^;]*" + b + "[^;]*" + c
				lits[i] = a + " " + b + " " + c
			}
			return compileRules(pats, regexc.Options{}), lits
		},
		inputSym: symText,
		customInput: func(r *rand.Rand, size int, lits []string) []byte {
			// Transactions: ~12 items drawn from the same vocabulary,
			// separated by ';'.
			items := itemVocab(lits)
			var out []byte
			for len(out) < size {
				for k := 0; k < 12 && len(out) < size; k++ {
					out = append(out, items[r.Intn(len(items))]...)
					out = append(out, ' ')
				}
				out = append(out, ';')
			}
			return out[:size]
		},
	}
}

// itemVocab splits plantable literals back into their item words.
func itemVocab(lits []string) []string {
	seen := map[string]bool{}
	var items []string
	for _, l := range lits {
		for _, w := range strings.Fields(l) {
			if !seen[w] {
				seen[w] = true
				items = append(items, w)
			}
		}
	}
	if len(items) == 0 {
		items = []string{"item"}
	}
	return items
}

func randomForestSpec() *Spec {
	return &Spec{
		Name: "RandomForest",
		Description: "Decision-tree ensembles as feature-threshold chains [39]: " +
			"each 20-state chain tests a byte-range per feature.",
		Paper: PaperRow{33220, 1661, 20, 398.24, 33220, 1, 33220, 398.24},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(1661, scale)
			parts := make([]*nfa.NFA, count)
			lits := make([]string, count)
			for i := 0; i < count; i++ {
				parts[i], lits[i] = rangeChainNFA(r, 20, 0.2, int32(i))
			}
			out := nfa.New()
			out.Union(parts...)
			return out, lits
		},
		inputSym:   symUniform,
		plantEvery: 2048, // planted feature vectors = samples routed down this path
	}
}

func powerENSpec() *Spec {
	return &Spec{
		Name: "PowerEN",
		Description: "IBM PowerEN regex micro-rules: short literal/class " +
			"signatures (avg ≈14 states).",
		Paper: PaperRow{14109, 1000, 48, 61.02, 12194, 62, 357, 30.02},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(1000, scale)
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				if r.Intn(4) == 0 {
					w := randWord(r, 8, 12, lettersLower)
					pats[i] = w + "[0-9]{3}"
					lits[i] = w + "123"
				} else {
					pats[i], lits[i] = literalWithRanges(r, 11+r.Intn(8), 0.1)
				}
				if i == 0 {
					pats[i], lits[i] = literalWithRanges(r, 48, 0.1)
				}
			}
			return compileRules(pats, regexc.Options{}), lits
		},
		inputSym:   symText,
		plantEvery: 1024,
	}
}

func protomataSpec() *Spec {
	return &Spec{
		Name: "Protomata",
		Description: "PROSITE protein motifs over the 20-letter amino-acid " +
			"alphabet [39]: positions are exact residues, residue classes, or " +
			"x (any), giving high sustained activity.",
		Paper: PaperRow{42011, 2340, 123, 1578.51, 38243, 513, 3745, 594.68},
		build: func(r *rand.Rand, scale float64) (*nfa.NFA, []string) {
			count := scaleCount(2340, scale)
			pats := make([]string, count)
			lits := make([]string, count)
			for i := range pats {
				n := 14 + r.Intn(9)
				if i == 0 {
					n = 123
				}
				var sb strings.Builder
				var wit []byte
				for k := 0; k < n; k++ {
					e, w := prositeElement(r)
					sb.WriteString(e)
					wit = append(wit, w)
				}
				pats[i] = sb.String()
				lits[i] = string(wit)
			}
			return compileRules(pats, regexc.Options{}), lits
		},
		inputSym:   symAmino,
		plantEvery: 2048,
	}
}
