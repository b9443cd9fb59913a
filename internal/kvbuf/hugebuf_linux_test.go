package kvbuf

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

func bufAddr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// advice is one recorded madvise call.
type advice struct {
	addr uintptr
	len  int
	kind int // MADV_*
}

// watchAdvice records every madvise call makeBuf makes until the test ends.
func watchAdvice(t *testing.T) *[]advice {
	t.Helper()
	seen := new([]advice)
	prev := madvise
	madvise = func(b []byte, a int) error {
		*seen = append(*seen, advice{bufAddr(b), len(b), a})
		return prev(b, a)
	}
	t.Cleanup(func() { madvise = prev })
	return seen
}

// hugeAdvice returns the length advised MADV_HUGEPAGE from addr on.
func hugeAdvice(seen []advice, addr uintptr) (int, bool) {
	for _, a := range seen {
		if a.kind == syscall.MADV_HUGEPAGE && a.addr == addr {
			return a.len, true
		}
	}
	return 0, false
}

func needHugePages(t *testing.T) int {
	t.Helper()
	hp := hugePageSize()
	if hp == 0 {
		t.Skip("kernel reports no transparent huge page size")
	}
	return hp
}

// TestLargeBufferAlignment: a fresh segment buffer of one huge page or more
// starts on a huge-page boundary with exactly the capacity asked for, and so
// does every buffer of a 20-round Recycle → reuse loop. A sync.Pool may drop
// what it holds (a GC, or the goroutine moving to another P), and makeBuf
// then hands out a fresh buffer: a round the pool served is one that made no
// new MADV_HUGEPAGE call, and only such a round must hand back a buffer this
// test recycled, at least once per size (not checked under -race, whose
// pools drop buffers at random). Smaller requests are plain, unadvised
// allocations of exactly their size.
func TestLargeBufferAlignment(t *testing.T) {
	hp := needHugePages(t)
	advised := watchAdvice(t)
	hugeCalls := func() (n int) {
		for _, a := range *advised {
			if a.kind == syscall.MADV_HUGEPAGE {
				n++
			}
		}
		return n
	}
	recycled := make(map[uintptr]bool) // every buffer this test put back
	// Two GCs empty the segment pools, so every first request is fresh.
	runtime.GC()
	runtime.GC()
	for _, n := range []int{hp, hp + 6, 2*hp + 6, 3*hp - 1} {
		for name, grab := range map[string]func(int) []byte{
			"pooledBuf": pooledBuf,
			"GrabBuf":   GrabBuf,
		} {
			b := grab(n)
			if bufAddr(b)%uintptr(hp) != 0 || cap(b) != n {
				t.Fatalf("%s(%d): address %#x cap %d, want a multiple of %d and cap %d", name, n, bufAddr(b), cap(b), hp, n)
			}
			if _, ok := hugeAdvice(*advised, bufAddr(b)); !ok {
				t.Fatalf("%s(%d): fresh buffer was not advised for huge pages", name, n)
			}
			recycled[bufAddr(b)] = true
			recycleBuf(b)
			served := 0
			for range 20 {
				calls := hugeCalls()
				c := grab(n)
				if bufAddr(c)%uintptr(hp) != 0 || cap(c) < n {
					t.Fatalf("%s(%d) round trip: address %#x cap %d, want a multiple of %d and cap at least %d", name, n, bufAddr(c), cap(c), hp, n)
				}
				if hugeCalls() == calls {
					served++
					if !recycled[bufAddr(c)] {
						t.Fatalf("%s(%d) round trip: the pool served %#x, which this test never recycled", name, n, bufAddr(c))
					}
				}
				recycled[bufAddr(c)] = true
				recycleBuf(c)
			}
			if served == 0 && !raceEnabled {
				t.Errorf("%s(%d): the pool served none of 20 round trips", name, n)
			}
		}
	}
	for _, n := range []int{1, 4 << 10, hp/2 + 1, hp - 1} {
		*advised = nil
		if b := makeBuf(n); cap(b) != n || len(*advised) != 0 {
			t.Errorf("makeBuf(%d): cap %d, %d madvise calls, want cap %d and none", n, cap(b), len(*advised), n)
		}
	}
}

// TestHugeAdviceStopsShortOfTheTail: the advice covers the whole huge pages
// inside the buffer and never reaches past its capacity. Advising the
// partial tail page too would fault a whole huge page for the last few bytes
// of a 4 MiB + 6 B segment.
func TestHugeAdviceStopsShortOfTheTail(t *testing.T) {
	hp := needHugePages(t)
	advised := watchAdvice(t)
	for _, n := range []int{hp, hp + 6, 2*hp - 1, 2*hp + 6, 3 * hp} {
		*advised = nil // a freed buffer's address can come back
		b := makeBuf(n)
		span, ok := hugeAdvice(*advised, bufAddr(b))
		if want := n / hp * hp; !ok || span != want || span > cap(b) {
			t.Errorf("makeBuf(%d): advised %d bytes (found %v), want %d, capacity %d", n, span, ok, want, cap(b))
		}
	}
}

// TestLargeBufferPaddingReleased: the padding before and after a large
// buffer goes back to the kernel (MADV_DONTNEED), because the heap clears a
// reused allocation whole and would leave it resident (85 MiB of peak RSS
// in the benchmark's avg-1k process, PERFORMANCE.md §3j). No released page
// may hold a byte of the buffer itself. A buffer whose allocation already
// starts (or ends) on the boundary has no padding on that side, so the
// buffers are kept alive, each placed after the last, until both sides have
// been seen released.
func TestLargeBufferPaddingReleased(t *testing.T) {
	hp := needHugePages(t)
	pg := uintptr(os.Getpagesize())
	advised := watchAdvice(t)
	var keep [][]byte
	leading, trailing := 0, 0
	for i := 0; i < 20 && (leading == 0 || trailing == 0 || i < 5); i++ {
		n := []int{hp, hp + 6, 2*hp + 6, 3*hp - 1, 2 * hp}[i%5]
		*advised = nil
		b := makeBuf(n)
		keep = append(keep, b)
		base := bufAddr(b)
		tail := (base + uintptr(n) + pg - 1) &^ (pg - 1)
		for _, a := range *advised {
			if a.kind != syscall.MADV_DONTNEED {
				continue
			}
			end := a.addr + uintptr(a.len)
			switch {
			case a.len > 0 && end == base:
				leading++
			case a.len > 0 && a.addr == tail:
				trailing++
			default:
				t.Errorf("makeBuf(%d) at %#x: released [%#x, %#x), which is not its padding", n, base, a.addr, end)
			}
		}
	}
	runtime.KeepAlive(keep)
	if leading == 0 || trailing == 0 {
		t.Errorf("over %d buffers, padding released before %d and after %d of them, want both", len(keep), leading, trailing)
	}
}

// TestPaddingReleasesOnlyPadding feeds makeBuf's release ranges every
// 8 KiB-aligned start the heap may give, under 4, 16 and 64 KiB pages: each
// range is whole pages of raw that hold no byte of the buffer, and stops
// short of the padding's edges by less than a page.
func TestPaddingReleasesOnlyPadding(t *testing.T) {
	const start = uintptr(1) << 40 // a multiple of every page and huge-page size below
	for _, sz := range []struct{ pg, hp int }{{4 << 10, 2 << 20}, {16 << 10, 32 << 20}, {64 << 10, 2 << 20}} {
		for _, n := range []int{sz.hp, sz.hp + 6, 2*sz.hp - 1, 2*sz.hp + 6, 3 * sz.hp} {
			size := n + sz.hp - 8<<10
			for base := start; base < start+uintptr(sz.hp); base += 8 << 10 {
				off := int(-base & uintptr(sz.hp-1))
				edges := [2][2]int{{0, off}, {off + n, size}}
				for i, r := range padding(base, size, off, n, sz.pg) {
					lo, hi := edges[i][0], edges[i][1]
					ok := hi-lo < 2*sz.pg // too short to hold a whole page for sure
					if r[0] < r[1] {
						ok = lo <= r[0] && r[1] <= hi && r[0]-lo < sz.pg && hi-r[1] < sz.pg &&
							(base+uintptr(r[0]))%uintptr(sz.pg) == 0 && (base+uintptr(r[1]))%uintptr(sz.pg) == 0
					}
					if !ok {
						t.Fatalf("page %d, n %d, base %#x: released [%d, %d) of padding [%d, %d)", sz.pg, n, base, r[0], r[1], lo, hi)
					}
				}
			}
		}
	}
}

// TestHugeBufferMappingFlags reads the kernel's view: the mapping that holds
// a large buffer carries the hg (MADV_HUGEPAGE) flag. Whether huge pages
// actually back it depends on free memory; the flag does not.
func TestHugeBufferMappingFlags(t *testing.T) {
	hp := needHugePages(t)
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages unavailable (%q, %v)", mode, err)
	}
	b := makeBuf(2 * hp)
	flags := mappingFlags(t, bufAddr(b))
	runtime.KeepAlive(b)
	if !strings.Contains(" "+flags+" ", " hg ") {
		t.Errorf("mapping of a %d-byte buffer has VmFlags %q, want hg", 2*hp, flags)
	}
}

// mappingFlags returns the VmFlags of the /proc/self/smaps entry holding addr.
func mappingFlags(t *testing.T, addr uintptr) string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if flags, ok := strings.CutPrefix(line, "VmFlags:"); ok {
			if in {
				return strings.TrimSpace(flags)
			}
			continue
		}
		// A mapping header reads "start-end perms offset dev inode [path]".
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		lo, hi, ok := strings.Cut(fields[0], "-")
		if !ok {
			continue
		}
		start, err1 := strconv.ParseUint(lo, 16, 64)
		end, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 == nil && err2 == nil {
			in = uint64(addr) >= start && uint64(addr) < end
		}
	}
	t.Fatalf("no mapping holds %#x (scan err %v)", addr, sc.Err())
	return ""
}
