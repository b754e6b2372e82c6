package main

import (
	"strconv"
	"sync"
	"time"
)

// The reference kernel. The sandbox this benchmark runs in changes
// speed by 30–80 % for tens of seconds at a time (neighbours on the
// same host), which no run length within the time cap averages out. A
// fixed piece of work that shares no code with the repository is
// therefore run before and after every block of measured ops, and the
// block's times are divided by how slow the host was around it.
//
// The kernel runs on two goroutines at once and spends half its time
// on what the measured code spends its time on — allocating small
// linked objects, indexing them through a string-keyed map, reading
// them back — and half on plain arithmetic in registers. The first
// half reacts to the neighbours more strongly than any workload here,
// the second more weakly; which of the two follows a workload better
// changed from one noisy spell to the next, and the even blend was
// never much worse than no correction and usually two to five times
// better (README, "Host noise").

// refNominalMS fixes the scale of the normalised times: they read as
// milliseconds on a host where one reference reading takes this long,
// which is what this sandbox does when it is quiet.
const refNominalMS = 35.0

type refNode struct {
	next *refNode
	v    float64
}

var refKeys = func() []string {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "key$" + strconv.Itoa(i*7919)
	}
	return keys
}()

// refSink keeps the kernel's result alive, one slot per goroutine.
var refSink [2]float64

func refKernel(slot int) {
	var head *refNode
	for r := 0; r < 3; r++ {
		head = nil
		for i := 0; i < 100000; i++ {
			head = &refNode{next: head, v: float64(i)}
		}
	}
	m := make(map[string]*refNode)
	n := head
	for _, k := range refKeys {
		m[k] = n
		for j := 0; j < 24; j++ {
			n = n.next
		}
	}
	sum := 0.0
	for r := 0; r < 100; r++ {
		for _, k := range refKeys {
			sum += m[k].v
		}
	}
	a, b, c, d := 1.0, 2.0, 3.0, 4.0
	var x, y uint64 = 1, 2
	for i := 0; i < 6000000; i++ {
		a = a*1.0000001 + 0.5
		b = b*0.9999999 + 0.25
		c = c*1.0000002 + 0.125
		d = d*0.9999998 + 0.0625
		x = x*6364136223846793005 + 1
		y ^= x >> 7
	}
	refSink[slot] = sum + a + b + c + d + float64(y)
}

// refReading runs the kernel on two goroutines and returns the wall
// time in milliseconds.
func refReading() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for slot := range refSink {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			refKernel(slot)
		}(slot)
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// timeScale is the factor that turns a time measured between two
// reference readings into a normalised one.
func timeScale(before, after float64) float64 {
	return refNominalMS / ((before + after) / 2)
}
