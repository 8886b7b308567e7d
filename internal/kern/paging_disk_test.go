package kern

import (
	"path/filepath"
	"testing"

	"repro/internal/pager"
)

// TestDefaultPagerFileBacked is the durable-paging acceptance test: the
// default pager's backing store is a real file behind a frame pool, the
// kernel's physical memory is tiny, and the anonymous dataset is 4x the
// frame pool (and 16x physical memory) — every page lives through
// kernel pageout -> pager_data_write -> frame pool -> iomgr file, and
// faults back through the same stack, with full content verification.
func TestDefaultPagerFileBacked(t *testing.T) {
	const (
		pgsz    = 4096
		frames  = 16 // kernel physical frames
		pframes = 16 // pager frame-pool frames
		npages  = 64 // dataset: 4x the frame pool
	)
	vol, err := pager.OpenFileVolume(filepath.Join(t.TempDir(), "paging.vol"),
		npages*4, pgsz)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	fp := pager.NewFramePool(vol, pframes)

	k := NewKernel(Config{Frames: frames, PageSize: pgsz, PagingStore: fp})
	defer k.Shutdown()
	task := k.NewTask()
	addr, err := task.VMAllocate(0, npages*pgsz, true)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, pgsz)
	for i := 0; i < npages; i++ {
		for j := range page {
			page[j] = byte(i + 1)
		}
		if err := task.VMWrite(addr+uint64(i)*pgsz, page); err != nil {
			t.Fatal(err)
		}
	}
	// Read everything back: the early pages were long since paged out
	// to the file and must fault back in.
	for i := 0; i < npages; i++ {
		got, err := task.VMRead(addr+uint64(i)*pgsz, pgsz)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != byte(i+1) {
				t.Fatalf("page %d byte %d = %d, want %d", i, j, got[j], byte(i+1))
			}
		}
	}
	// Rewrite a stripe and verify again — writable through evict cycles.
	for i := 0; i < npages; i += 3 {
		for j := range page {
			page[j] = byte(128 + i)
		}
		if err := task.VMWrite(addr+uint64(i)*pgsz, page); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < npages; i++ {
		want := byte(i + 1)
		if i%3 == 0 {
			want = byte(128 + i)
		}
		got, err := task.VMRead(addr+uint64(i)*pgsz, pgsz)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want || got[pgsz-1] != want {
			t.Fatalf("page %d reread = %d, want %d", i, got[0], want)
		}
	}
	if k.DefaultPager().BackingPages() == 0 {
		t.Fatal("no pages on backing store despite 16x pressure")
	}
	c := k.DefaultPager().Counters()
	if c.BytesWritten == 0 || c.BytesRead == 0 {
		t.Fatalf("no real file I/O recorded: %+v", c)
	}
	if c.FrameMisses == 0 || c.Evictions == 0 {
		t.Fatalf("frame pool never cycled: %+v", c)
	}
	st := k.Statistics()
	if st.Pageouts == 0 || st.Pageins == 0 {
		t.Fatalf("kernel paging stats %+v", st)
	}
	t.Logf("io: %+v, kernel: pageouts=%d pageins=%d", c, st.Pageouts, st.Pageins)
}
