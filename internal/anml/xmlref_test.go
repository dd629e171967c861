package anml

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"

	"cacheautomaton/internal/nfa"
	"cacheautomaton/internal/regexc"
)

// readXML is the reader Read replaced: encoding/xml's reflective decoder
// into Write's types, then the same two passes. It is the oracle the
// differential tests hold Read to.
func readXML(r io.Reader) (*Network, error) {
	var doc xmlDoc
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("anml: %w", err)
	}
	net := &Network{ID: doc.Network.ID, NFA: nfa.New()}
	idToState := make(map[string]nfa.StateID, len(doc.Network.STEs))
	for _, ste := range doc.Network.STEs {
		if ste.ID == "" {
			return nil, fmt.Errorf("anml: state-transition-element without id")
		}
		if _, dup := idToState[ste.ID]; dup {
			return nil, fmt.Errorf("anml: duplicate element id %q", ste.ID)
		}
		class, err := regexc.ParseClass(ste.SymbolSet)
		if err != nil {
			return nil, fmt.Errorf("anml: element %q symbol-set: %w", ste.ID, err)
		}
		st := nfa.State{Class: class}
		switch ste.Start {
		case "", "none":
			st.Start = nfa.NoStart
		case "start-of-data":
			st.Start = nfa.StartOfData
		case "all-input":
			st.Start = nfa.AllInput
		default:
			return nil, fmt.Errorf("anml: element %q has unknown start type %q", ste.ID, ste.Start)
		}
		if ste.Report != nil {
			st.Report = true
			if ste.Report.Code != "" {
				code, err := strconv.ParseInt(ste.Report.Code, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("anml: element %q reportcode %q: %w", ste.ID, ste.Report.Code, err)
				}
				st.ReportCode = int32(code)
			}
		}
		id := net.NFA.AddState(st)
		idToState[ste.ID] = id
		net.STEIDs = append(net.STEIDs, ste.ID)
	}
	// Second pass: edges (targets may be declared after sources).
	for _, ste := range doc.Network.STEs {
		src := idToState[ste.ID]
		for _, act := range ste.Activate {
			dst, ok := idToState[act.Element]
			if !ok {
				return nil, fmt.Errorf("anml: element %q activates unknown element %q", ste.ID, act.Element)
			}
			net.NFA.AddEdge(src, dst)
		}
	}
	if err := net.NFA.Validate(); err != nil {
		return nil, fmt.Errorf("anml: %w", err)
	}
	return net, nil
}
