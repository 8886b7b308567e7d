package pager

import (
	"fmt"

	"repro/internal/iomgr"
)

// BlockStore is the device interface the pager stack pages against: a
// flat array of fixed-size blocks. machine.Disk satisfies it (the
// simulated device), FileVolume backs it with a real file through the
// I/O manager, and FramePool layers a buffer cache over either.
type BlockStore interface {
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// Blocks returns the device capacity in blocks.
	Blocks() int
	// Read copies a block into dst (at least BlockSize bytes). Blocks
	// never written read as zeroes.
	Read(block int, dst []byte)
	// Write stores src (at least BlockSize bytes) into a block.
	Write(block int, src []byte)
}

// IOCounters aggregates the real-I/O counters a store can report;
// machbench's paging experiments surface them so experiments count
// actual device traffic, not just simulated operations.
type IOCounters struct {
	// Reads/Writes/Fsyncs count device operations.
	Reads  int64
	Writes int64
	Fsyncs int64
	// BytesRead/BytesWritten count transferred bytes.
	BytesRead    int64
	BytesWritten int64
	// Batches counts iomgr dispatcher rounds (iomgr-backed stores).
	Batches int64
	// Frame-pool traffic, zero for bare devices.
	FrameHits   int64
	FrameMisses int64
	Evictions   int64
	Writebacks  int64
}

// CounterStore is implemented by stores that can report real I/O
// counters.
type CounterStore interface {
	Counters() IOCounters
}

// FileVolume is a BlockStore over a real file, all I/O through the
// iomgr submission/completion engine. Reads of never-written blocks
// come back zero-filled (iomgr's past-EOF semantics), matching
// machine.Disk's fresh-device contract.
type FileVolume struct {
	f         *iomgr.File
	blockSize int
	blocks    int
}

// OpenFileVolume opens (creating if needed) a volume of nblocks blocks
// of blockSize bytes at path.
func OpenFileVolume(path string, nblocks, blockSize int) (*FileVolume, error) {
	if nblocks <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("pager: invalid volume geometry %d x %d", nblocks, blockSize)
	}
	f, err := iomgr.Open(path, iomgr.Options{Create: true})
	if err != nil {
		return nil, err
	}
	return &FileVolume{f: f, blockSize: blockSize, blocks: nblocks}, nil
}

// BlockSize implements BlockStore.
func (v *FileVolume) BlockSize() int { return v.blockSize }

// Blocks implements BlockStore.
func (v *FileVolume) Blocks() int { return v.blocks }

func (v *FileVolume) check(block int) {
	if block < 0 || block >= v.blocks {
		panic(fmt.Sprintf("pager: volume block %d out of range [0,%d)", block, v.blocks))
	}
}

// Read implements BlockStore: a synchronous fault-in read. The
// BlockStore contract has no error channel (machine.Disk panics on
// misuse); real device errors surface the same way — a paging device
// that fails is fatal to the memory it backs.
func (v *FileVolume) Read(block int, dst []byte) {
	v.check(block)
	if _, err := v.f.SyncReadAt(dst[:v.blockSize], int64(block)*int64(v.blockSize)); err != nil {
		panic(fmt.Sprintf("pager: volume read block %d: %v", block, err))
	}
}

// Write implements BlockStore.
func (v *FileVolume) Write(block int, src []byte) {
	v.check(block)
	if _, err := v.f.SyncWriteAt(src[:v.blockSize], int64(block)*int64(v.blockSize)); err != nil {
		panic(fmt.Sprintf("pager: volume write block %d: %v", block, err))
	}
}

// AsyncRead submits a block read without waiting.
func (v *FileVolume) AsyncRead(block int, dst []byte) *iomgr.Op {
	v.check(block)
	return v.f.ReadAt(dst[:v.blockSize], int64(block)*int64(v.blockSize))
}

// AsyncWrite submits a block write without waiting.
func (v *FileVolume) AsyncWrite(block int, src []byte) *iomgr.Op {
	v.check(block)
	return v.f.WriteAt(src[:v.blockSize], int64(block)*int64(v.blockSize))
}

// Sync forces written blocks to stable storage.
func (v *FileVolume) Sync() error { return v.f.SyncFsync() }

// File exposes the underlying iomgr file (stats, fault injection).
func (v *FileVolume) File() *iomgr.File { return v.f }

// Counters implements CounterStore.
func (v *FileVolume) Counters() IOCounters {
	st := v.f.Stats()
	return IOCounters{
		Reads:        st.BytesRead / int64(v.blockSize),
		Writes:       st.BytesWritten / int64(v.blockSize),
		Fsyncs:       st.Fsyncs,
		BytesRead:    st.BytesRead,
		BytesWritten: st.BytesWritten,
		Batches:      st.Batches,
	}
}

// Close shuts the volume down.
func (v *FileVolume) Close() error { return v.f.Close() }
