package main

import (
	"fmt"
	"math/rand"
	"strings"

	ca "cacheautomaton"
)

// Everything here is the bench's own work: seeded rule and input
// generation and the digests outputs are checked against. None of it is
// timed, and -seed changes nothing else.

// sparseRules is the scan-sparse rule set: one partition, 21 states.
var sparseRules = []string{"needle[0-9]{4}", "other.*thing"}

// smallRules is the serving rule set shared by serve-small and
// session-stream (and by cabench's serving comparison, whose numbers
// this ledger supersedes).
var smallRules = []string{"needle[0-9]", "hay.{2}stack", "x[abc]+y"}

const fillerText = "abcdefghij xyz 0123456789 qrstuvw "

// sparseBuffer is n bytes of text with a rule fragment planted about
// every 2 KiB, so matches are rare and the kernel, not match
// collection, is what a scan spends its time on.
//
// "other" is planted once, in the last 512 bytes, with a "thing" after
// it. Once other.*thing has seen "other" its .* state never goes out
// again, and a shard that starts after that point cannot guess its
// start state from a 2 KiB warm-up: the sharded run would repair —
// re-scan — every later shard, on every seed that plants "other" early
// and on none that does not. Kept at the tail, the rule still fires and
// the speculation holds at every shard boundary.
func sparseBuffer(rng *rand.Rand, n int) []byte {
	buf := make([]byte, 0, n+16)
	next := 1024 + rng.Intn(2048)
	for len(buf) < n {
		if len(buf) >= next {
			switch rng.Intn(4) {
			case 0:
				buf = append(buf, "othe thing"...) // a decoy for each half of the rule
			default:
				buf = append(buf, fmt.Sprintf("needle%04d", rng.Intn(10000))...)
			}
			next = len(buf) + 1024 + rng.Intn(2048)
			continue
		}
		i := rng.Intn(len(fillerText) - 8)
		buf = append(buf, fillerText[i:i+8]...)
	}
	buf = buf[:n]
	copy(buf[n-512:], "other")
	copy(buf[n-64:], "thing")
	return buf
}

// smallPayload is n bytes of request text at cabench's servingInput
// density: one 8-byte step in four is a pattern hit.
func smallPayload(rng *rand.Rand, n int) string {
	buf := make([]byte, 0, n+16)
	for len(buf) < n {
		if rng.Intn(4) != 0 {
			i := rng.Intn(len(fillerText) - 8)
			buf = append(buf, fillerText[i:i+8]...)
			continue
		}
		switch rng.Intn(3) {
		case 0:
			buf = append(buf, fmt.Sprintf("needle%d", rng.Intn(10))...)
		case 1:
			buf = append(buf, "hay..stack"...)
		default:
			buf = append(buf, "xabcacby"...)
		}
	}
	return string(buf[:n])
}

func randWord(rng *rand.Rand, lo, hi int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, lo+rng.Intn(hi-lo+1))
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// coldRules is the compile-cold rule set: n rules cycling through the
// four shapes a signature set is made of. lits are strings the rules
// match, for planting in the probe input.
func coldRules(rng *rand.Rand, n int) (rules, lits []string) {
	rules = make([]string, n)
	lits = make([]string, n)
	for i := range rules {
		switch i % 4 {
		case 0: // literal path
			p := "/" + randWord(rng, 5, 9) + "/" + randWord(rng, 8, 14)
			ext := randWord(rng, 3, 3)
			rules[i] = p + "\\." + ext
			lits[i] = p + "." + ext
		case 1: // class repeat
			w := randWord(rng, 8, 14)
			rules[i] = w + "=[0-9a-f]{8}"
			lits[i] = w + "=deadbeef"
		case 2: // 5-way alternation behind a shared prefix
			prefix := randWord(rng, 8, 12)
			alts := make([]string, 5)
			for a := range alts {
				alts[a] = randWord(rng, 6, 10)
			}
			rules[i] = prefix + "(" + strings.Join(alts, "|") + ")"
			lits[i] = prefix + alts[rng.Intn(len(alts))]
		default: // .* gap
			a, b := randWord(rng, 6, 10), randWord(rng, 6, 10)
			rules[i] = a + ".*" + b
			lits[i] = a + " " + b
		}
	}
	return rules, lits
}

// plantedText is n bytes of filler with one of lits planted about every
// 512 bytes. The first planted is lits[3], a ".*" rule's: from byte 256
// on that rule's gap state never goes out, so on every seed the sharded
// probe's second shard guesses its start state wrong and is repaired —
// not on the seeds that happen to draw a ".*" literal early and on no
// others.
func plantedText(rng *rand.Rand, n int, lits []string) []byte {
	buf := make([]byte, 0, n+64)
	next := 256
	for len(buf) < n {
		if len(buf) >= next {
			lit := lits[3]
			if next > 256 {
				lit = lits[rng.Intn(len(lits))]
			}
			buf = append(buf, lit...)
			next = len(buf) + 256 + rng.Intn(512)
			continue
		}
		i := rng.Intn(len(fillerText) - 8)
		buf = append(buf, fillerText[i:i+8]...)
	}
	return buf[:n]
}

// report is one (offset, rule) event in the form every surface's
// matches are reduced to before comparison.
type report struct {
	off  int64
	code int32
}

// digest identifies a match set: how many reports and an
// order-independent hash over them. Two surfaces agree when their
// digests do; the count alone makes a mismatch readable.
type digest struct {
	n   int
	sum uint64
}

func (d digest) String() string { return fmt.Sprintf("%d matches #%016x", d.n, d.sum) }

// add folds one report in (a SplitMix64 finaliser over offset and code,
// summed, so order does not matter and no sort is needed per request).
func (d *digest) add(off int64, code int32) {
	z := uint64(off)<<20 ^ uint64(uint32(code)) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	d.sum += z ^ z>>31
	d.n++
}

// digestSet hashes the distinct reports. The machine reports once per
// matching state and the baselines once per code, so the oracle
// cross-checks compare sets.
func digestSet(rs []report) digest {
	seen := make(map[report]struct{}, len(rs))
	var d digest
	for _, r := range rs {
		if _, dup := seen[r]; !dup {
			seen[r] = struct{}{}
			d.add(r.off, r.code)
		}
	}
	return d
}

// digestMatches hashes a surface's matches as delivered, duplicates
// included: every execution surface of one automaton must deliver the
// same multiset, which is what the per-operation checks compare.
func digestMatches(ms []ca.Match) digest {
	var d digest
	for _, m := range ms {
		d.add(m.Offset, int32(m.Pattern))
	}
	return d
}

func reportsOf(ms []ca.Match) []report {
	rs := make([]report, len(ms))
	for i, m := range ms {
		rs[i] = report{m.Offset, int32(m.Pattern)}
	}
	return rs
}
