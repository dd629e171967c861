package sched

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/machine"
	"cacheautomaton/internal/mapper"
	"cacheautomaton/internal/regexc"
)

func placementFor(t testing.TB, pats []string) *mapper.Placement {
	t.Helper()
	n, err := regexc.CompileSet(pats, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapper.Map(n, mapper.Config{Design: arch.NewDesign(arch.PerfOpt), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func inputWithNeedles(n int, needle string, times int) []byte {
	in := bytes.Repeat([]byte("."), n)
	for i := 0; i < times; i++ {
		copy(in[(i+1)*n/(times+1):], needle)
	}
	return in
}

func TestSchedulerRunsAllJobs(t *testing.T) {
	s, err := New(Config{Slices: 2, NFAWaysPerSlice: 4, TDPWatts: 100, QuantumBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pl := placementFor(t, []string{fmt.Sprintf("needle%d", i)})
		job := &Job{
			ID:        fmt.Sprintf("job%d", i),
			Placement: pl,
			Input:     inputWithNeedles(4096, fmt.Sprintf("needle%d", i), 5),
			Priority:  i,
		}
		if err := s.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	results := s.Run()
	if len(results) != 3 {
		t.Fatalf("completed = %d, want 3", len(results))
	}
	for _, r := range results {
		if r.Matches != 5 {
			t.Errorf("%s: matches = %d, want 5", r.ID, r.Matches)
		}
	}
}

func TestSchedulerPreemptionPreservesMatches(t *testing.T) {
	// Tight TDP: only one job runs at a time, forcing suspend/resume.
	// A match is planted EXACTLY across a quantum boundary; the
	// architectural snapshot must carry it over.
	pl := placementFor(t, []string{"boundary"})
	onePower := pl.PeakPowerHintW()
	s, err := New(Config{Slices: 1, NFAWaysPerSlice: 8, TDPWatts: onePower * 1.5, QuantumBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, prio int) *Job {
		in := bytes.Repeat([]byte("x"), 1024)
		copy(in[252:], "boundary") // spans the 256-byte quantum edge
		copy(in[700:], "boundary")
		return &Job{ID: id, Placement: placementFor(t, []string{"boundary"}), Input: in, Priority: prio}
	}
	jA, jB := mk("A", 1), mk("B", 1)
	if err := s.Submit(jA); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(jB); err != nil {
		t.Fatal(err)
	}
	results := s.Run()
	if len(results) != 2 {
		t.Fatalf("completed = %d", len(results))
	}
	for _, r := range results {
		if r.Matches != 2 {
			t.Errorf("%s: matches = %d, want 2 (one spanning the quantum boundary)", r.ID, r.Matches)
		}
	}
	// With both jobs over half the budget, they cannot co-run: at least
	// one job must have been suspended at least once.
	if jA.suspends+jB.suspends == 0 {
		t.Error("tight TDP should force preemption")
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	pl1 := placementFor(t, []string{"aaa"})
	s, _ := New(Config{Slices: 1, NFAWaysPerSlice: 8, TDPWatts: pl1.PeakPowerHintW() * 1.2, QuantumBytes: 128})
	low := &Job{ID: "low", Placement: placementFor(t, []string{"aaa"}), Input: make([]byte, 1024), Priority: 0}
	high := &Job{ID: "high", Placement: placementFor(t, []string{"bbb"}), Input: make([]byte, 1024), Priority: 9}
	if err := s.Submit(low); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(high); err != nil {
		t.Fatal(err)
	}
	results := s.Run()
	if results[0].ID != "high" {
		t.Errorf("high-priority job should finish first: %+v", results)
	}
	if results[0].CompletedAtSymbols >= results[1].CompletedAtSymbols {
		t.Errorf("completion timeline out of order: %+v", results)
	}
}

func TestSubmitRejections(t *testing.T) {
	s, _ := New(Config{Slices: 1, NFAWaysPerSlice: 1, TDPWatts: 0.001})
	pl := placementFor(t, []string{"abc"})
	if err := s.Submit(&Job{ID: "hot", Placement: pl, Input: []byte("x")}); err == nil {
		t.Error("job hotter than TDP should be rejected")
	}
	if err := s.Submit(&Job{ID: "empty", Placement: pl}); err == nil {
		t.Error("job without input should be rejected")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("invalid config should be rejected")
	}
}

func TestSchedulerMatchesEqualUnscheduledRun(t *testing.T) {
	// The scheduled (preempted) execution must find exactly what a single
	// uninterrupted run finds.
	pats := []string{"alpha[0-9]", "bet+a"}
	pl := placementFor(t, pats)
	in := bytes.Repeat([]byte("alpha7 betta "), 200)
	m, err := machine.New(pl, machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want := res.MatchCount

	s, _ := New(Config{Slices: 1, NFAWaysPerSlice: 8, TDPWatts: pl.PeakPowerHintW() * 1.4, QuantumBytes: 100})
	j1 := &Job{ID: "j1", Placement: pl, Input: in, Priority: 1}
	j2 := &Job{ID: "j2", Placement: placementFor(t, pats), Input: in, Priority: 1}
	if err := s.Submit(j1); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(j2); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Run() {
		if r.Matches != want {
			t.Errorf("%s: matches = %d, want %d", r.ID, r.Matches, want)
		}
	}
}
