package fuzz

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"compdiff/internal/vm"
)

// TestCountingSourceTransparent: the wrapper must not change the
// generated stream — rand.Rand over a counting source equals rand.Rand
// over a plain source.
func TestCountingSourceTransparent(t *testing.T) {
	a := rand.New(rand.NewSource(99))
	b := rand.New(newCountingSource(99))
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() || a.Intn(37) != b.Intn(37) {
			t.Fatalf("stream diverged at draw %d", i)
		}
	}
}

// TestCountingSourceSeek: seeking to a recorded cursor must land on
// exactly the position the original stream reached.
func TestCountingSourceSeek(t *testing.T) {
	cs := newCountingSource(7)
	r := rand.New(cs)
	for i := 0; i < 500; i++ {
		r.Intn(1 + i%64) // mixed draw widths, like havoc does
	}
	cursor := cs.draws
	var want []int64
	for i := 0; i < 50; i++ {
		want = append(want, r.Int63())
	}

	cs2 := newCountingSource(7)
	cs2.seek(7, cursor)
	if cs2.draws != cursor {
		t.Fatalf("cursor after seek = %d, want %d", cs2.draws, cursor)
	}
	r2 := rand.New(cs2)
	for i, w := range want {
		if got := r2.Int63(); got != w {
			t.Fatalf("draw %d after seek = %d, want %d", i, got, w)
		}
	}
}

// TestMutatorSeek: a fresh mutator sought to another's cursor must
// continue with the identical mutant stream.
func TestMutatorSeek(t *testing.T) {
	a := NewMutator(11, 64)
	data := []byte("some input bytes")
	for i := 0; i < 200; i++ {
		a.Havoc(data)
	}
	cursor := a.Cursor()

	b := NewMutator(11, 64)
	b.Seek(cursor)
	for i := 0; i < 100; i++ {
		if !bytes.Equal(a.Havoc(data), b.Havoc(data)) {
			t.Fatalf("mutant stream diverged at %d after seek", i)
		}
	}
}

// TestStateJSONRoundTrip: the wire type must survive JSON exactly —
// the checkpoint layer's byte-identity property depends on it.
func TestStateJSONRoundTrip(t *testing.T) {
	m := machineFor(t, maze)
	f := New(m, [][]byte{[]byte("AAAA")}, Options{Seed: 42})
	f.Run(3_000)
	st := f.ExportState()

	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, &back) {
		t.Fatal("state changed across JSON round trip")
	}
}

// TestExportRestoreEquivalence is the resume property at the fuzzer
// level: run N, export, restore into a fresh fuzzer, and both must
// generate identical futures — same stats, same queue, same crashes.
func TestExportRestoreEquivalence(t *testing.T) {
	f1 := New(machineFor(t, maze), [][]byte{[]byte("AAAA")}, Options{Seed: 42})
	f1.Run(5_000)
	st := f1.ExportState()

	// The restored fuzzer is built exactly as a resuming process would
	// build it: same options, same seeds (whose ingestion the restore
	// then discards).
	f2 := New(machineFor(t, maze), [][]byte{[]byte("AAAA")}, Options{Seed: 42})
	if err := f2.RestoreState(st); err != nil {
		t.Fatal(err)
	}

	s1 := f1.Run(5_000)
	s2 := f2.Run(5_000)
	if s1 != s2 {
		t.Fatalf("diverged after restore:\n%+v\n%+v", s1, s2)
	}
	q1, q2 := f1.Queue(), f2.Queue()
	if len(q1) != len(q2) {
		t.Fatalf("queue lengths differ: %d vs %d", len(q1), len(q2))
	}
	for i := range q1 {
		if !bytes.Equal(q1[i].Data, q2[i].Data) || q1[i].Hash != q2[i].Hash {
			t.Fatalf("queue entry %d differs", i)
		}
	}
	c1, c2 := f1.Crashes(), f2.Crashes()
	if len(c1) != len(c2) {
		t.Fatalf("crash counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if !bytes.Equal(c1[i].Input, c2[i].Input) {
			t.Fatalf("crash %d differs", i)
		}
	}
}

// TestExportSharesNoMemory: mutating the exported state must not reach
// back into the fuzzer.
func TestExportSharesNoMemory(t *testing.T) {
	f := New(machineFor(t, maze), [][]byte{[]byte("AAAA")}, Options{Seed: 1})
	f.Run(500)
	st := f.ExportState()
	before := append([]byte(nil), f.queue[0].Data...)
	st.Queue[0].Data[0] ^= 0xff
	st.Virgin[0] ^= 0xff
	if !bytes.Equal(f.queue[0].Data, before) {
		t.Fatal("exported queue aliases the live queue")
	}
}

// TestRestoreRejectsBadState: restore must validate rather than adopt
// a state that cannot be correct.
func TestRestoreRejectsBadState(t *testing.T) {
	m := machineFor(t, maze)
	f := New(m, [][]byte{[]byte("AAAA")}, Options{Seed: 1})
	mapLen := len(m.Coverage())
	if mapLen == 7 || mapLen == vm.CovMapSize {
		t.Fatalf("maze map is %d bytes; the wrong-size rows below would not test a wrong size", mapLen)
	}
	if err := f.RestoreState(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := f.RestoreState(&State{Virgin: make([]byte, 7)}); err == nil {
		t.Fatal("wrong virgin size accepted")
	}
	// A dense 64 KiB virgin map is what older builds checkpointed.
	old := &State{Virgin: make([]byte, vm.CovMapSize), Queue: []*Seed{{Data: []byte("x")}}}
	if err := f.RestoreState(old); err == nil {
		t.Fatal("old-format 64 KiB virgin map accepted")
	}
	if err := f.RestoreState(&State{Virgin: make([]byte, mapLen)}); err == nil {
		t.Fatal("empty queue accepted")
	}
	st := &State{
		Virgin:  make([]byte, mapLen),
		Queue:   []*Seed{{Data: []byte("x")}},
		Crashes: []*Crash{{Input: []byte("y")}}, // nil Result
	}
	if err := f.RestoreState(st); err == nil {
		t.Fatal("crash without result accepted")
	}
}
