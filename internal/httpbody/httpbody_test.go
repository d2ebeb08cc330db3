package httpbody

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// request builds a POST whose body arrives in small reads; declared is
// the Content-Length it claims (-1: none, as for a chunked body).
func request(body []byte, declared int64) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(oneKBReader{bytes.NewReader(body)}))
	r.ContentLength = declared
	return r
}

// oneKBReader hands out at most 1 KB per Read, like a socket would.
type oneKBReader struct{ r io.Reader }

func (o oneKBReader) Read(p []byte) (int, error) {
	if len(p) > 1024 {
		p = p[:1024]
	}
	return o.r.Read(p)
}

func TestRead(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KB
	const limit = 1 << 20

	// Known length: one buffer, sized once.
	got, err := Read(httptest.NewRecorder(), request(body, int64(len(body))), limit, nil)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("known length: err %v, %d bytes", err, len(got))
	}
	if cap(got) != len(body)+1 {
		t.Errorf("known length: capacity %d, want %d (sized once from Content-Length)", cap(got), len(body)+1)
	}

	// A buffer that is large enough is reused, whatever it held.
	scratch := make([]byte, 10, 2*len(body))
	got, err = Read(httptest.NewRecorder(), request(body, int64(len(body))), limit, scratch)
	if err != nil || !bytes.Equal(got, body) || &got[0] != &scratch[:1][0] {
		t.Errorf("reuse: err %v, %d bytes, reused %v", err, len(got), len(got) > 0 && &got[0] == &scratch[:1][0])
	}

	// Unknown length grows as the bytes arrive.
	got, err = Read(httptest.NewRecorder(), request(body, -1), limit, nil)
	if err != nil || !bytes.Equal(got, body) {
		t.Errorf("unknown length: err %v, %d bytes", err, len(got))
	}

	// A declared length is believed only up to maxPresize.
	got, err = Read(httptest.NewRecorder(), request(nil, 10*maxPresize), 64*maxPresize, nil)
	if err != nil || len(got) != 0 || cap(got) > maxPresize+1 {
		t.Errorf("huge declared length: err %v, %d bytes, capacity %d", err, len(got), cap(got))
	}

	// Over the limit: refused from the header alone, or once the bytes
	// show it.
	var tooLarge *http.MaxBytesError
	r := request(body, int64(len(body)))
	if _, err = Read(httptest.NewRecorder(), r, 1000, nil); !errors.As(err, &tooLarge) {
		t.Errorf("declared over limit: err %v", err)
	}
	if rest, _ := io.ReadAll(r.Body); len(rest) != len(body) {
		t.Errorf("declared over limit: %d body bytes were read", len(body)-len(rest))
	}
	if _, err = Read(httptest.NewRecorder(), request(body, -1), 1000, nil); !errors.As(err, &tooLarge) {
		t.Errorf("undeclared over limit: err %v", err)
	}
}
