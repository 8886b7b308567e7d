package iomgr

import "io"

// worker is one of a File's pool goroutines: it takes dispatched ops
// and does the positioned read, write or fsync against the os.File,
// one blocked OS thread per in-flight syscall. finish layers the
// completion semantics of the package comment on top.
func (f *File) worker() {
	defer f.wg.Done()
	for op := range f.work {
		var n int
		var err error
		switch op.Kind {
		case OpRead:
			n, err = f.os.ReadAt(op.Buf, op.Off)
			if err == io.EOF {
				err = nil // finish zero-fills the tail
			}
		case OpWrite:
			n, err = f.os.WriteAt(op.Buf, op.Off)
		case OpFsync:
			err = f.os.Sync()
		}
		f.finish(op, n, err)
	}
}
