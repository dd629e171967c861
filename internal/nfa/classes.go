package nfa

import (
	"math/bits"

	"cacheautomaton/internal/bitvec"
)

// AlphabetClasses fills classOf with n's symbol classes and returns how
// many there are: two symbols share a class iff every state accepts both
// or neither, so the automaton cannot tell them apart. Classes are
// numbered by their first symbol.
//
// It refines the one class of all 256 symbols by each state's symbol set,
// touching only that set's own symbols, so the pass costs at most Σ|set|
// over the states; a compiled rule set's states mostly hold one symbol,
// where a pass over all 256 per set would cost 256 times that.
func AlphabetClasses(n *NFA, classOf *[256]uint8) int {
	var (
		cls         [256]uint16 // symbol → class during refinement
		size, moved [256]uint16 // per class: its symbols, and those in the set
		split       [256]uint16 // per class: the class its moved symbols go to
		touched     [256]uint16
	)
	size[0] = 256
	classes := 1
	var memo [64]bitvec.Class
	for s := range n.States {
		c := &n.States[s].Class
		switch c.Count() {
		case 256:
			continue
		case 1:
			// A one-symbol set, most states of a compiled rule set, splits
			// its symbol off unless it is alone in its class already.
			w := 0
			for c[w] == 0 {
				w++
			}
			sym := w<<6 | bits.TrailingZeros64(c[w])
			if g := cls[sym]; size[g] > 1 {
				size[g]--
				cls[sym] = uint16(classes)
				size[classes] = 1
				classes++
			}
			continue
		default:
			// A wider set is refined once: a direct-mapped memo of the sets
			// seen skips a repeat (on the ledger's scan-dense, refining every
			// repeat read load_s 8 % worse). A slot's loser is refined again,
			// which changes nothing.
			h := (c[0] ^ c[1] ^ c[2] ^ c[3]) * 0x9e3779b97f4a7c15 >> 58
			if memo[h] == *c {
				continue
			}
			memo[h] = *c
		}
		// Split every class the set cuts: its symbols in the set move to
		// a new class. A class wholly inside the set stays as it is.
		nt := 0
		for w := range c {
			for word := c[w]; word != 0; word &= word - 1 {
				g := cls[w<<6|bits.TrailingZeros64(word)]
				if moved[g] == 0 {
					touched[nt] = g
					nt++
				}
				moved[g]++
			}
		}
		for w := range c {
			for word := c[w]; word != 0; word &= word - 1 {
				sym := w<<6 | bits.TrailingZeros64(word)
				g := cls[sym]
				if split[g] == 0 {
					if moved[g] == size[g] {
						continue
					}
					split[g] = uint16(classes)
					classes++
				}
				size[g]--
				cls[sym] = split[g]
				size[split[g]]++
			}
		}
		for _, g := range touched[:nt] {
			moved[g], split[g] = 0, 0
		}
	}
	// Renumber by first symbol.
	var id [256]int16
	for i := range id {
		id[i] = -1
	}
	numbered := 0
	for sym, g := range cls {
		if id[g] < 0 {
			id[g] = int16(numbered)
			numbered++
		}
		classOf[sym] = uint8(id[g])
	}
	return numbered
}
