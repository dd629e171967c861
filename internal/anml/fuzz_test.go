package anml

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/workload"
)

// FuzzRead holds Read to readXML, the encoding/xml reader it replaced, on
// arbitrary bytes: whatever Read accepts, readXML accepts into a
// deep-equal Network; whatever readXML rejects, Read rejects; and a
// document only readXML accepts is one of the subset's four documented
// rejections. Anything accepted must also re-serialize and re-read to the
// same shape.
func FuzzRead(f *testing.F) {
	f.Add(sampleDoc)
	f.Add(`<anml><automata-network id="x"><state-transition-element id="a" symbol-set="q" start="all-input"/></automata-network></anml>`)
	f.Add("<anml></anml>")
	f.Add("garbage")
	// The first states of a few registry NFAs: whole ones are tens of
	// kilobytes, and the fuzzer's minimizer is quadratic in input length.
	const keep = 4
	for _, name := range []string{"Snort", "Hamming", "Levenshtein", "Protomata"} {
		n, err := workload.ByName(name).Build(1, 0.01)
		if err != nil {
			f.Fatal(err)
		}
		n.States = n.States[:keep]
		for i := range n.States {
			var out []nfa.StateID
			for _, v := range n.States[i].Out {
				if v < keep {
					out = append(out, v)
				}
			}
			n.States[i].Out = out
		}
		var buf bytes.Buffer
		if err := Write(&buf, n, name, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, tc := range subsetCases {
		f.Add(tc.doc)
	}
	for _, tc := range edgeCases {
		f.Add(tc.doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		net, err := differential(t, doc)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, net.NFA, net.ID, nil); err != nil {
			t.Fatalf("accepted network failed to serialize: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.NFA.NumStates() != net.NFA.NumStates() || again.NFA.NumEdges() != net.NFA.NumEdges() {
			t.Fatal("round trip changed the automaton shape")
		}
	})
}

// differential reads doc with Read and with readXML, fails t where the
// two break FuzzRead's contract, and returns Read's result.
func differential(t *testing.T, doc string) (*Network, error) {
	t.Helper()
	net, err := Read(strings.NewReader(doc))
	want, werr := readXML(strings.NewReader(doc))
	switch {
	case err == nil && werr != nil:
		t.Fatalf("Read accepts a document encoding/xml rejects (%v)", werr)
	case err == nil && !reflect.DeepEqual(net, want):
		t.Fatalf("Read and encoding/xml disagree:\n%+v\n%+v", net, want)
	case err != nil && werr == nil && !outsideSubset(err, doc):
		t.Fatalf("Read rejects a document encoding/xml accepts, and not as outside the subset: %v", err)
	}
	return net, err
}

// outsideSubset reports whether err is Read's rejection of one of the
// documented constructs, and doc holds one.
func outsideSubset(err error, doc string) bool {
	return errors.Is(err, errOutsideSubset) &&
		(strings.Contains(doc, "<!") || strings.Contains(doc, ":") || strings.Count(doc, "automata-network") >= 2)
}
