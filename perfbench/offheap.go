package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeapChunk is how many elements one chunk of an offHeap holds.
const offHeapChunk = 1 << 16

// offHeap is an append-only sequence kept in anonymous mmap'd memory,
// outside the Go heap. The garbage collector paces itself by the live
// heap, so records held there (latency samples, spans) would make it run
// less and less often as a run goes on, and a traced run less often than
// an untraced one: the benchmark's own bookkeeping would change the
// timing of the system it measures. T must hold no pointers.
type offHeap[T any] struct {
	chunks [][]T
	n      int
}

// push appends v. It panics when the system refuses memory.
func (o *offHeap[T]) push(v T) {
	if o.n == len(o.chunks)*offHeapChunk {
		var zero T
		b, err := syscall.Mmap(-1, 0, offHeapChunk*int(unsafe.Sizeof(zero)),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("perfbench: map sample memory: %v", err))
		}
		o.chunks = append(o.chunks, unsafe.Slice((*T)(unsafe.Pointer(&b[0])), offHeapChunk))
	}
	*o.at(o.n) = v
	o.n++
}

// at returns the i'th element; i < len.
func (o *offHeap[T]) at(i int) *T { return &o.chunks[i/offHeapChunk][i%offHeapChunk] }

func (o *offHeap[T]) len() int { return o.n }

// free returns the memory to the system; the sequence is empty after.
func (o *offHeap[T]) free() {
	for _, c := range o.chunks {
		var zero T
		b := unsafe.Slice((*byte)(unsafe.Pointer(&c[0])), len(c)*int(unsafe.Sizeof(zero)))
		_ = syscall.Munmap(b)
	}
	o.chunks, o.n = nil, 0
}
