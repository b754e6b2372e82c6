// Package machine provides the network and memory cost models that
// stand in for the paper's two hardware platforms: the IBM SP2 with its
// custom switch driven through MPL, and the Berkeley NOW — Sparc
// workstations on a Myrinet switch driven through MPICH.
//
// The paper's §3 profiles three quantities as a function of size
// (Fig. 5): local bcopy bandwidth (cache-limited), sender injection
// bandwidth, and end-to-end receive bandwidth. The models here are
// simple LogGP-style affine costs with a cache knee for bcopy,
// parameterized so that the qualitative facts the paper relies on hold:
//
//   - message startup is expensive, so most of the amortization benefit
//     arrives at sizes well below the cache size;
//   - bcopy bandwidth inside the cache dwarfs network bandwidth, so the
//     packing cost of combining small messages is negligible;
//   - beyond the cache, bcopy bandwidth drops towards (on the SP2,
//     barely twice) the network bandwidth, so combining very large
//     sections stops paying — hence the ~20 KB combining threshold;
//   - the NOW has a higher per-message overhead and lower bandwidth
//     than the SP2, so message-count reductions buy relatively more.
//
// Absolute constants are calibrated to the mid-1990s numbers published
// for these machines (SP2: Stunkel et al., Snir et al., IBM Systems
// Journal 34(2); NOW: Keeton/Anderson/Patterson, Hot Interconnects III)
// but only the shape matters for reproducing the paper's charts.
package machine

import "fmt"

// Machine is a bulk-synchronous distributed-memory cost model.
type Machine struct {
	// Name identifies the platform ("SP2", "NOW").
	Name string

	// SendOverhead is the fixed per-message CPU cost on the sender, in
	// seconds (the "o" of LogP plus library overhead).
	SendOverhead float64
	// RecvOverhead is the fixed per-message CPU cost on the receiver.
	RecvOverhead float64
	// Latency is the wire latency in seconds (the "L" of LogP).
	Latency float64
	// PerByte is the reciprocal network bandwidth, seconds per byte
	// (the "G" of LogGP), as seen by the receiver-waits benchmark.
	PerByte float64
	// InjectPerByte is the reciprocal of the sender's injection
	// bandwidth, seconds per byte; on both machines injection is slower
	// than bcopy but can exceed receive bandwidth for some sizes.
	InjectPerByte float64

	// CacheBytes is the data cache size governing the bcopy knee.
	CacheBytes int
	// BcopyInCachePerByte is seconds per byte for buffers that fit in
	// cache; BcopyOutCachePerByte applies past the knee.
	BcopyInCachePerByte  float64
	BcopyOutCachePerByte float64

	// FlopTime is seconds per double-precision floating point
	// operation, including the loop/memory overhead of compiled
	// stencil code.
	FlopTime float64

	// DefaultProcs is the processor count used in the paper's runs.
	DefaultProcs int
}

// SP2 returns the IBM SP2 / MPL model used for Fig. 10(a)–(c).
func SP2() Machine {
	return Machine{
		Name:                 "SP2",
		SendOverhead:         40e-6,
		RecvOverhead:         30e-6,
		Latency:              5e-6,
		PerByte:              1.0 / (34e6),  // ~34 MB/s receive bandwidth
		InjectPerByte:        1.0 / (41e6),  // injection a bit faster
		CacheBytes:           128 << 10,     // 128 KB data cache
		BcopyInCachePerByte:  1.0 / (150e6), // ~150 MB/s in cache
		BcopyOutCachePerByte: 1.0 / (65e6),  // barely 2x message bw beyond
		FlopTime:             45e-9,         // ~22 MFLOPS sustained stencil
		DefaultProcs:         25,
	}
}

// NOW returns the Berkeley NOW (Sparc + Myrinet + MPICH) model used
// for Fig. 10(d)–(f).
func NOW() Machine {
	return Machine{
		Name:                 "NOW",
		SendOverhead:         500e-6, // MPICH on Myrinet: very high per-msg cost
		RecvOverhead:         400e-6,
		Latency:              15e-6,
		PerByte:              1.0 / (8e6), // ~8 MB/s receive bandwidth via MPICH
		InjectPerByte:        1.0 / (12e6),
		CacheBytes:           1 << 20, // 1 MB external cache
		BcopyInCachePerByte:  1.0 / (170e6),
		BcopyOutCachePerByte: 1.0 / (45e6),
		FlopTime:             50e-9,
		DefaultProcs:         8,
	}
}

// ByName returns the named machine model.
func ByName(name string) (Machine, error) {
	switch name {
	case "SP2", "sp2":
		return SP2(), nil
	case "NOW", "now":
		return NOW(), nil
	}
	return Machine{}, fmt.Errorf("machine: unknown machine %q (want SP2 or NOW)", name)
}

// MsgTime returns the end-to-end time, in seconds, for one
// point-to-point message of the given size: the time the receiver
// waits for completion in the paper's profiling loop.
func (m Machine) MsgTime(bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return m.SendOverhead + m.RecvOverhead + m.Latency + float64(bytes)*m.PerByte
}

// InjectTime returns the sender-side time to inject a message.
func (m Machine) InjectTime(bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return m.SendOverhead + float64(bytes)*m.InjectPerByte
}

// BcopyTime returns the time to copy a buffer of the given size, with
// the cache knee: buffers at or below the cache size copy at the
// in-cache rate; larger buffers degrade smoothly to the out-of-cache
// rate (the part that fits copies fast, the rest slow).
func (m Machine) BcopyTime(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	if bytes <= m.CacheBytes {
		return float64(bytes) * m.BcopyInCachePerByte
	}
	fast := float64(m.CacheBytes) * m.BcopyInCachePerByte
	slow := float64(bytes-m.CacheBytes) * m.BcopyOutCachePerByte
	return fast + slow
}

// NetworkBandwidth returns the effective receive bandwidth, bytes per
// second, for a message of the given size (the bottom curve of Fig. 5).
func (m Machine) NetworkBandwidth(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.MsgTime(bytes)
}

// InjectBandwidth returns the sender-injection bandwidth, bytes per
// second (the middle curve of Fig. 5).
func (m Machine) InjectBandwidth(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.InjectTime(bytes)
}

// BcopyBandwidth returns the local-copy bandwidth, bytes per second
// (the top curve of Fig. 5).
func (m Machine) BcopyBandwidth(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / m.BcopyTime(bytes)
}

// HalfPowerPoint returns the message size at which the network achieves
// half its asymptotic bandwidth — the size where startup is amortized.
// The paper observes this point falls well below the cache size on
// both machines, which justifies combining small messages.
func (m Machine) HalfPowerPoint() int {
	// Solve bytes*PerByte == startup.
	startup := m.SendOverhead + m.RecvOverhead + m.Latency
	return int(startup / m.PerByte)
}

// ReduceTime returns the time for a global reduction of the given
// element payload across p processors, modeled as a binary combining
// tree of point-to-point messages.
func (m Machine) ReduceTime(bytes, p int) float64 {
	if p <= 1 {
		return 0
	}
	depth := 0
	for n := 1; n < p; n *= 2 {
		depth++
	}
	return float64(depth) * m.MsgTime(bytes)
}
