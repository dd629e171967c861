// flowscan: per-flow scanning with suspend/resume — the §2.9 system
// integration story. Network traffic arrives as interleaved packets from
// many flows; matches must not cross flow boundaries, so each flow gets
// its own Stream whose architectural state (active-state vectors + symbol
// counter) is suspended between packets exactly as the paper describes
// ("recording the number of input symbols processed and the active state
// vector to memory").
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	ca "cacheautomaton"
)

type packet struct {
	flow    int
	payload []byte
}

func main() {
	ctx := context.Background()
	rules := `alert tcp any any (msg:"split exploit"; content:"EXPLOIT-MARKER"; sid:2001;)
alert tcp any any (msg:"beacon"; pcre:"/beacon[0-9]{4}ping/"; sid:2002;)`
	a, err := ca.CompileSnortRules(rules, ca.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Three flows; the attack string is SPLIT across two packets of flow 1
	// with flow 2's traffic interleaved between them — a per-flow scanner
	// must still catch it, and must NOT match when the halves belong to
	// different flows.
	r := rand.New(rand.NewSource(9))
	noise := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return b
	}
	packets := []packet{
		{1, append(noise(20), []byte("EXPLOIT-")...)}, // first half
		{2, []byte("MARKER and beacon12")},            // wrong flow for both halves
		{3, noise(30)},
		{1, append([]byte("MARKER"), noise(10)...)}, // completes flow 1's match
		{2, []byte("34ping tail")},                  // completes flow 2's pcre
	}

	// One suspended state per flow, as the OS would keep per-connection.
	suspended := map[int][]byte{}
	alerts := 0
	for i, pkt := range packets {
		var s *ca.Stream
		if blob, ok := suspended[pkt.flow]; ok {
			s, err = a.ResumeStreamContext(ctx, bytes.NewReader(blob))
		} else {
			s, err = a.StreamContext(ctx)
		}
		if err != nil {
			log.Fatal(err)
		}
		matches, err := s.FeedContext(ctx, pkt.payload)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range matches {
			alerts++
			fmt.Printf("packet %d (flow %d): ALERT sid %d at flow offset %d\n",
				i, pkt.flow, m.Pattern, m.Offset)
		}
		var buf bytes.Buffer
		if err := s.Suspend(&buf); err != nil {
			log.Fatal(err)
		}
		suspended[pkt.flow] = buf.Bytes()
	}
	fmt.Printf("\n%d alerts from %d packets across %d flows\n", alerts, len(packets), len(suspended))
	fmt.Printf("per-flow state blob: %d bytes (%d partitions of active-state vector)\n",
		len(suspended[1]), a.Partitions())
	if alerts != 2 {
		log.Fatal("expected exactly the two cross-packet matches")
	}
}
