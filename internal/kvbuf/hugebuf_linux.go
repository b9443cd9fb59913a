package kvbuf

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// hugePageSize is the transparent-huge-page size, 0 where the kernel has none.
var hugePageSize = sync.OnceValue(func() int {
	b, _ := os.ReadFile("/sys/kernel/mm/transparent_hugepage/hpage_pmd_size")
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n <= 0 || n&(n-1) != 0 {
		return 0
	}
	return n
})

// madvise is syscall.Madvise; tests watch the calls.
var madvise = syscall.Madvise

// makeBuf returns an empty buffer of capacity exactly n. The Go heap never
// advises its arenas for huge pages, so under THP mode madvise a fresh process
// faults its buffers in 4 KiB at a time. From one huge page up, the buffer
// starts on a huge-page boundary, and its whole huge pages are advised before
// anything touches them: never the tail past the last one, which would fault
// a huge page for a few bytes. The padding around the buffer is released,
// since the heap clears a reused allocation whole. Errors are dropped: with
// THP compiled out or set to never, the buffer keeps 4 KiB pages.
func makeBuf(n int) []byte {
	hp := hugePageSize()
	if hp == 0 || n < hp {
		return make([]byte, 0, n)
	}
	raw := make([]byte, n+hp-8<<10) // the heap aligns a large object to 8 KiB
	base := uintptr(unsafe.Pointer(&raw[0]))
	off := int(-base & uintptr(hp-1))
	_ = madvise(raw[off:off+(n&^(hp-1))], syscall.MADV_HUGEPAGE)
	for _, r := range padding(base, len(raw), off, n, os.Getpagesize()) {
		if r[0] < r[1] {
			_ = madvise(raw[r[0]:r[1]], syscall.MADV_DONTNEED)
		}
	}
	return raw[off : off : off+n]
}

// padding returns the whole pg-byte pages in raw[:off] and in
// raw[off+n:size] as offset ranges into raw, which starts at address base;
// a range whose start is not below its end holds none. The kernel clears
// whole pages and the heap aligns raw only to 8 KiB, so under larger pages
// an edge rounded outward would clear a neighbouring object.
func padding(base uintptr, size, off, n, pg int) [2][2]int {
	b := int(base)
	down := func(x int) int { return (b+x)&^(pg-1) - b }
	return [2][2]int{{down(pg - 1), down(off)}, {down(off + n + pg - 1), down(size)}}
}
