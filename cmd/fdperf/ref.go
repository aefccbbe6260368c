package main

import (
	"slices"
	"time"
)

// refSeconds is the reference kernel's time on a quiet 2-vCPU Xeon VM, the
// host the benchmark was written on. Every time fdperf reports is scaled
// to that host speed: a measured duration is multiplied by refSeconds over
// the kernel's time measured right beside it. On a shared host whose speed
// drifts by up to 2× within minutes, the kernel slows down with the
// program, and the scaled times keep only the program's own share.
const refSeconds = 0.020

// refKernel is the host-speed yardstick: a fixed mix of an in-place sort
// and random updates and probes of a table larger than the L2 cache. It
// depends on nothing in the module under test, so a change there cannot
// move it, and it allocates nothing after newRefKernel, so the heap a job
// leaves behind cannot move it either.
type refKernel struct {
	keys, work []uint64
	table      []uint32
	sink       uint32
}

func newRefKernel() *refKernel {
	k := &refKernel{
		keys:  make([]uint64, 1<<17),
		work:  make([]uint64, 1<<17),
		table: make([]uint32, 1<<19),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys[i] = x
	}
	return k
}

// scale runs the kernel once and returns the factor that turns a duration
// measured beside it into reference seconds.
func (k *refKernel) scale() float64 {
	t0 := time.Now()
	copy(k.work, k.keys)
	slices.Sort(k.work)
	mask := uint64(len(k.table) - 1)
	h := k.sink
	for round := uint64(0); round < 8; round++ {
		for i, x := range k.work {
			k.table[(x>>(7+round))&mask] += uint32(i)
			h ^= k.table[(x>>(31+round))&mask]
		}
	}
	k.sink = h
	return refSeconds / time.Since(t0).Seconds()
}
