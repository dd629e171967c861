// Package bitvec provides the fixed 256-bit symbol-class sets that label
// homogeneous-NFA states (one bit per 8-bit input symbol) and the
// variable-length bit vectors used for match/active state vectors.
//
// A Class mirrors an STE column in the Cache Automaton: the column stores
// the one-hot-per-row encoding of the symbols the state matches, so reading
// the row addressed by the current input symbol yields one match bit per
// STE (paper §2.2).
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Class is a set over the 256 possible input symbols, i.e. the symbol class
// of one STE. The zero value is the empty class.
type Class [4]uint64

// ClassRange returns the class containing all symbols in [lo, hi].
func ClassRange(lo, hi byte) Class {
	var c Class
	c.AddRange(lo, hi)
	return c
}

// ClassOf returns the class containing exactly the given symbols.
func ClassOf(syms ...byte) Class {
	var c Class
	for _, s := range syms {
		c.Add(s)
	}
	return c
}

// AllSymbols is the class matching every input symbol (the "*" STE).
func AllSymbols() Class {
	return Class{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// Add inserts symbol s into the class.
func (c *Class) Add(s byte) { c[s>>6] |= 1 << (s & 63) }

// Remove deletes symbol s from the class.
func (c *Class) Remove(s byte) { c[s>>6] &^= 1 << (s & 63) }

// AddRange inserts all symbols in [lo, hi]; it is a no-op if lo > hi.
func (c *Class) AddRange(lo, hi byte) {
	for s := int(lo); s <= int(hi); s++ {
		c.Add(byte(s))
	}
}

// Has reports whether symbol s is in the class.
func (c Class) Has(s byte) bool { return c[s>>6]&(1<<(s&63)) != 0 }

// IsEmpty reports whether the class contains no symbols.
func (c Class) IsEmpty() bool { return c == Class{} }

// Count returns the number of symbols in the class.
func (c Class) Count() int {
	return bits.OnesCount64(c[0]) + bits.OnesCount64(c[1]) +
		bits.OnesCount64(c[2]) + bits.OnesCount64(c[3])
}

// Union returns c ∪ o.
func (c Class) Union(o Class) Class {
	return Class{c[0] | o[0], c[1] | o[1], c[2] | o[2], c[3] | o[3]}
}

// Complement returns the class of all symbols not in c.
func (c Class) Complement() Class {
	return Class{^c[0], ^c[1], ^c[2], ^c[3]}
}

// Symbols returns the members of the class in ascending order.
func (c Class) Symbols() []byte {
	out := make([]byte, 0, c.Count())
	for w := 0; w < 4; w++ {
		word := c[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, byte(w<<6|b))
			word &= word - 1
		}
	}
	return out
}

// Ranges returns the class as a minimal list of inclusive [lo, hi] runs.
func (c Class) Ranges() [][2]byte {
	var runs [][2]byte
	inRun := false
	var lo byte
	for s := 0; s < 256; s++ {
		if c.Has(byte(s)) {
			if !inRun {
				lo, inRun = byte(s), true
			}
		} else if inRun {
			runs = append(runs, [2]byte{lo, byte(s - 1)})
			inRun = false
		}
	}
	if inRun {
		runs = append(runs, [2]byte{lo, 255})
	}
	return runs
}

// String renders the class in bracket-expression form, e.g. "[a-z0-9]",
// "[\x00-\xff]" or "[]". Printable ASCII renders literally; everything else
// as \xNN escapes.
func (c Class) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for _, r := range c.Ranges() {
		writeClassSym(&b, r[0])
		switch {
		case r[1] == r[0]:
		case r[1] == r[0]+1:
			writeClassSym(&b, r[1])
		default:
			b.WriteByte('-')
			writeClassSym(&b, r[1])
		}
	}
	b.WriteByte(']')
	return b.String()
}

func writeClassSym(b *strings.Builder, s byte) {
	switch {
	case s == '\\' || s == ']' || s == '-' || s == '^' || s == '[':
		b.WriteByte('\\')
		b.WriteByte(s)
	case s >= 0x20 && s < 0x7f:
		b.WriteByte(s)
	default:
		fmt.Fprintf(b, "\\x%02x", s)
	}
}
