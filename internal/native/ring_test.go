package native

// White-box tests for the pairs' payload rings: a sender fills message
// k+3 into the slice message k travelled in, and the only thing that
// makes that safe is the order the capacity-1 channel puts on the two
// ends. These tests are meant to run under -race, where a slot rewritten
// while its previous tenant is still in flight or being read shows up as
// a data race.

import (
	goruntime "runtime"
	"testing"
	"unsafe"
)

// pairEngine wires a minimal two-processor fabric by hand — just the
// 0↔1 pair — so the rings can be driven without a program.
func pairEngine() (*proc, *proc) {
	eng := &Engine{procs: 2, links: make([]link, 2)}
	eng.link = []*link{nil, &eng.links[0], &eng.links[1], nil}
	for i := range eng.links {
		eng.links[i].ch = make(chan []float64, 1)
	}
	return &proc{procState: procState{eng: eng, p: 0}}, &proc{procState: procState{eng: eng, p: 1}}
}

func base(buf []float64) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
}

// TestRingSenderAheadNeverAliases: a sender that packs and sends as fast
// as the channel lets it — one message being read, one queued, one being
// filled — against a reader that dawdles over every element never writes
// a slice the reader still holds: every payload arrives whole (and -race
// sees no write racing a read), although the messages travel in only
// three backing arrays.
func TestRingSenderAheadNeverAliases(t *testing.T) {
	const messages, words = 200, 64
	p0, p1 := pairEngine()
	sent := make(chan error, 1)
	go func() {
		for k := 0; k < messages; k++ {
			buf := p0.getBuf(1, words)
			for i := 0; i < words; i++ {
				buf = append(buf, float64(k))
			}
			if err := p0.send(1, buf); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	arrays := map[uintptr]bool{}
	for k := 0; k < messages; k++ {
		buf, err := p1.recv(0)
		if err != nil {
			t.Fatal(err)
		}
		arrays[base(buf)] = true
		for i, v := range buf {
			if v != float64(k) {
				t.Fatalf("message %d word %d reads %v: its slot was refilled while it was being read", k, i, v)
			}
			if i%16 == 0 {
				goruntime.Gosched() // let the sender run as far ahead as it can
			}
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if len(arrays) != 3 {
		t.Fatalf("%d messages travelled in %d backing arrays, want the ring's 3", messages, len(arrays))
	}
	if want := int64(3 * 8 * words); p0.allocBytes != want {
		t.Fatalf("allocBytes = %d, want %d (three slots, grown once each)", p0.allocBytes, want)
	}
}

// TestRingSlots: the fourth getBuf returns the first slot's backing
// array; a slot too small for a later message is replaced once, the
// bytes counted in allocBytes, and the larger slice is what a repeat of
// the run (the ring rewound) finds; nil barrier tokens take no slot.
func TestRingSlots(t *testing.T) {
	p0, p1 := pairEngine()
	l := p0.eng.pair(1, 0)
	var first [4]uintptr
	for k := range first {
		buf := p0.getBuf(1, 8)
		if len(buf) != 0 || cap(buf) < 8 {
			t.Fatalf("getBuf %d: len %d cap %d, want an empty slice of capacity >= 8", k, len(buf), cap(buf))
		}
		first[k] = base(buf)
	}
	if first[3] != first[0] || first[1] == first[0] || first[2] == first[0] || first[2] == first[1] {
		t.Fatalf("slots %v: want three distinct backing arrays and the fourth getBuf on the first", first)
	}
	if p0.allocBytes != 3*8*8 {
		t.Fatalf("allocBytes = %d after three fresh slots of 8, want %d", p0.allocBytes, 3*8*8)
	}

	// Second run, a larger first message: slot 0 is grown once.
	l.next = 0
	grown := p0.getBuf(1, 128)
	if cap(grown) < 128 || base(grown) == first[0] {
		t.Fatalf("undersized slot not replaced: cap %d", cap(grown))
	}
	if want := int64(3*8*8 + 8*128); p0.allocBytes != want {
		t.Fatalf("allocBytes = %d after growing one slot to 128, want %d", p0.allocBytes, want)
	}
	if again := p0.getBuf(1, 8); base(again) != first[1] {
		t.Fatal("growing slot 0 disturbed slot 1")
	}
	// Third run: every slot is already as large as the run needs.
	l.next = 0
	if again := p0.getBuf(1, 128); base(again) != base(grown) || p0.allocBytes != 3*8*8+8*128 {
		t.Fatalf("a repeat run did not find the grown slot (allocBytes %d)", p0.allocBytes)
	}

	// A barrier token is a nil message: it crosses the channel and leaves
	// the ring where it was.
	at := l.next
	if err := p0.send(1, nil); err != nil {
		t.Fatal(err)
	}
	if buf, err := p1.recv(0); err != nil || buf != nil {
		t.Fatalf("barrier token arrived as %v, %v", buf, err)
	}
	if l.next != at {
		t.Fatalf("a nil token advanced the ring from %d to %d", at, l.next)
	}
	if p0.msgs != 1 || p0.wire != 0 {
		t.Fatalf("a nil token counted %d messages, %d wire bytes; want 1, 0", p0.msgs, p0.wire)
	}
}
