// Package httpbody reads a bounded HTTP request body into one buffer.
package httpbody

import (
	"io"
	"net/http"
)

// maxPresize caps the capacity reserved on the client's word alone: a
// declared Content-Length beyond it is only believed as the bytes arrive.
const maxPresize = 1 << 20

// Read reads the whole request body, at most limit bytes of it, into
// buf[:0] and returns the filled slice (buf's array when it was large
// enough). The buffer is sized once from Content-Length, so a body of
// known length is copied once rather than through io.ReadAll's doubling;
// a chunked body grows by doubling. A body over limit fails with an
// *http.MaxBytesError — before reading a byte when Content-Length already
// says so — and the partial buffer is still returned for reuse.
func Read(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if r.ContentLength > limit {
		return buf, &http.MaxBytesError{Limit: limit}
	}
	// One spare byte lets the read that finds EOF happen without growing.
	want := 512
	if r.ContentLength >= 0 {
		want = int(min(r.ContentLength, maxPresize)) + 1
	}
	if cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
