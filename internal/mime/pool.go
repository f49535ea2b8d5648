package mime

import (
	"math/bits"
	"sync"
)

// Decoded base64 bodies live in pooled buffers: one sync.Pool per
// power-of-two capacity from 512 bytes to 16 MiB. A body over the largest
// class gets a buffer of its own, which is never pooled.
const (
	minBodyClass = 9
	maxBodyClass = 24
)

var bodyPools [maxBodyClass - minBodyClass + 1]sync.Pool

// bodyBuf returns a buffer of length n and its pool handle, nil when n is
// over the largest class.
func bodyBuf(n int) ([]byte, *[]byte) {
	class := minBodyClass
	if n > 1<<minBodyClass {
		class = bits.Len(uint(n - 1))
	}
	if class > maxBodyClass {
		return make([]byte, n), nil
	}
	buf, _ := bodyPools[class-minBodyClass].Get().(*[]byte)
	if buf == nil {
		b := make([]byte, 1<<class)
		buf = &b
	}
	return (*buf)[:n], buf
}

// putBodyBuf gives a buffer from bodyBuf back to its pool; a nil handle is
// ignored.
func putBodyBuf(buf *[]byte) {
	if buf == nil {
		return
	}
	bodyPools[bits.Len(uint(cap(*buf)-1))-minBodyClass].Put(buf)
}
